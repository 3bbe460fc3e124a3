//! The simulated Intel Xeon Phi (Knights Landing) processor backend —
//! and, more generally, any *modeled* shared-memory processor.
//!
//! No KNL is attached to this machine, so the KNL results are produced by a
//! two-step simulation (see DESIGN.md's substitution table):
//!
//! 1. **Functional execution with exact instrumentation.** The real
//!    algorithm (a one-task pass through `cnc_cpu::execute` with the real
//!    kernels from `cnc-intersect`) runs over the graph with a `CountingMeter`,
//!    producing both the exact common-neighbor counts *and* the exact tally
//!    of scalar/vector operations, streamed bytes and random accesses the
//!    algorithm performs. Nothing about the work is estimated.
//! 2. **Analytic timing.** The tally becomes a `cnc-machine::WorkProfile`
//!    and the machine model (`cnc_machine::estimate`) prices it on the KNL
//!    spec under the chosen thread count and MCDRAM mode.
//!
//! The same runner with the `cpu_server` spec produces the modeled CPU
//! curves of Figure 5 (the container has one core, so measured scaling is
//! impossible; single-thread *wall-clock* numbers come from `cnc-cpu`
//! directly).
//!
//! # Example
//!
//! ```
//! use cnc_cpu::CpuKernel;
//! use cnc_graph::datasets::{Dataset, Scale};
//! use cnc_intersect::{MpsConfig, SimdLevel};
//! use cnc_knl::{profile_of, ModeledProcessor};
//! use cnc_machine::MemMode;
//!
//! let g = Dataset::TwS.build(Scale::Tiny);
//! let knl = ModeledProcessor::knl_for(Dataset::TwS.capacity_scale(&g));
//! let mps = CpuKernel::Mps(MpsConfig::with_simd(SimdLevel::Avx512));
//! let (counts, profile) = profile_of(&g, &mps);
//! assert_eq!(counts.len(), g.num_directed_edges());
//! assert!(knl.time_profile(&profile, 256, MemMode::McdramFlat).seconds > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profiles;
mod runner;

pub use profiles::{counts_and_work_of, profile_from_work, profile_of, working_set_of};
pub use runner::ModeledProcessor;
