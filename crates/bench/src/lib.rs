//! Benchmark and reproduction harness.
//!
//! One module per table/figure of the paper's evaluation (Section 5); the
//! `repro` binary drives them and prints the same rows/series the paper
//! reports. Criterion benches (in `benches/`) measure real wall-clock of
//! the kernels and drivers on the host; the experiment modules here produce
//! the *modeled* cross-processor results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod experiments;
pub mod output;
pub mod profiles;

pub use output::ExpOutput;
pub use profiles::ProfileSet;
