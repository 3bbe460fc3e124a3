//! The planning step of a run: every decision that can be taken *before*
//! touching edge data, resolved into an explicit, inspectable value.
//!
//! [`Runner::plan`](crate::Runner::plan) produces a [`Plan`] from the
//! platform × algorithm configuration and the one fact it reads of the
//! target [`PreparedGraph`], its `|V|` ([`Runner::plan_for_vertices`] takes
//! that count directly):
//!
//! * the reordering decision (degree-descending preprocessing on/off);
//! * kernel selection — the `RfChoice` is resolved against `|V|` into a
//!   concrete [`CpuKernel`], MPS's lane width is resolved against a modeled
//!   machine (its own width, not the host's), and configuration the type
//!   system cannot check (the RF ratio) is validated here with a
//!   descriptive [`PlanError`] instead of a panic deep inside a worker
//!   task;
//! * partitioning — the parallel task split, when the platform has one;
//! * any kernel substitution a platform forces (the GPU has no plain-merge
//!   baseline: **M** runs as MPS with an infinite skew threshold), recorded
//!   in the plan and surfaced in the final report instead of being applied
//!   silently.

use cnc_cpu::{CpuKernel, ParConfig};
use cnc_graph::PreparedGraph;
use cnc_intersect::{MpsConfig, RfRatioError, SimdLevel};
use cnc_workload::{WorkloadError, WorkloadKind};

use crate::runner::{Algorithm, Platform, Runner};

/// Why a run cannot be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The BMP range-filter ratio is invalid (zero / one / not a power of
    /// two / above 2^31).
    InvalidRfRatio(RfRatioError),
    /// The workload configuration is invalid (clique size out of range).
    InvalidWorkload(WorkloadError),
    /// The platform cannot execute the requested workload (only the real
    /// CPU backends run non-CNC workloads).
    UnsupportedWorkload {
        /// Label of the requested workload.
        workload: String,
        /// Label of the platform that cannot run it.
        platform: String,
    },
    /// Point-query batch sessions execute on the real CPU backends only
    /// (the modeled platforms have no point-query entry).
    UnsupportedBatchPlatform {
        /// Label of the platform that cannot serve batches.
        platform: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidRfRatio(e) => write!(f, "invalid BMP range-filter config: {e}"),
            PlanError::InvalidWorkload(e) => write!(f, "invalid workload config: {e}"),
            PlanError::UnsupportedWorkload { workload, platform } => write!(
                f,
                "workload {workload} is not supported on platform {platform} \
                 (non-CNC workloads run on the real CPU backends only)"
            ),
            PlanError::UnsupportedBatchPlatform { platform } => write!(
                f,
                "point-query batches are not supported on platform {platform} \
                 (batch sessions run on the real CPU backends only)"
            ),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::InvalidRfRatio(e) => Some(e),
            PlanError::InvalidWorkload(e) => Some(e),
            PlanError::UnsupportedWorkload { .. } | PlanError::UnsupportedBatchPlatform { .. } => {
                None
            }
        }
    }
}

impl From<RfRatioError> for PlanError {
    fn from(e: RfRatioError) -> Self {
        PlanError::InvalidRfRatio(e)
    }
}

impl From<WorkloadError> for PlanError {
    fn from(e: WorkloadError) -> Self {
        PlanError::InvalidWorkload(e)
    }
}

/// A kernel substituted for the requested one by a platform that cannot run
/// the request natively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSubstitution {
    /// Paper-style label of what the caller asked for.
    pub requested: String,
    /// Description of what actually runs.
    pub effective: String,
    /// Why the platform substituted.
    pub reason: &'static str,
}

/// The resolved decisions of a run, fixed before any counting happens.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Degree-descending reorder before executing (counts are always
    /// remapped back to the input graph's offsets).
    pub reorder: bool,
    /// The counting workload this run executes (CNC by default).
    pub workload: WorkloadKind,
    /// The algorithm as requested.
    pub algorithm: Algorithm,
    /// The CPU-side kernel dispatch with the range-filter choice resolved
    /// against this graph's `|V|` and, on a modeled machine, MPS's lane
    /// width resolved to the machine's — validated, ready to execute.
    pub cpu_kernel: CpuKernel,
    /// The parallel task split, for platforms that partition.
    pub partitioning: Option<ParConfig>,
    /// A platform-forced kernel substitution, if any.
    pub substitution: Option<KernelSubstitution>,
}

impl Runner {
    /// Resolve this configuration against a prepared graph into an
    /// executable [`Plan`], rejecting invalid kernel configuration with a
    /// descriptive error. Planning reads only the preparation's metadata
    /// (`|V|` for the range-filter ratio) — no edge data is touched.
    pub fn plan(&self, prepared: &PreparedGraph) -> Result<Plan, PlanError> {
        self.plan_for_vertices(prepared.graph().num_vertices())
    }

    /// [`Runner::plan`] from the one input it reads, the graph's `|V|`. A
    /// shard worker that loaded only its execution CSR plans through this
    /// with that CSR's `|V|` (a relabel keeps `|V|`), so it and the
    /// coordinator follow one planning rule.
    pub fn plan_for_vertices(&self, num_vertices: usize) -> Result<Plan, PlanError> {
        let algorithm = self.algorithm();
        let cpu_kernel = match &algorithm {
            Algorithm::MergeBaseline => CpuKernel::Merge,
            Algorithm::Mps(cfg) => CpuKernel::Mps(MpsConfig {
                simd: modeled_simd(self.platform()).unwrap_or(cfg.simd),
                ..*cfg
            }),
            Algorithm::Bmp(rf) => CpuKernel::Bmp(rf.mode(num_vertices)),
        };
        cpu_kernel.validate()?;
        let workload = self.workload_kind();
        workload.validate()?;
        let cpu_platform = matches!(
            self.platform(),
            Platform::CpuSequential | Platform::CpuParallel(_)
        );
        if workload != WorkloadKind::Cnc && !cpu_platform {
            return Err(PlanError::UnsupportedWorkload {
                workload: workload.label(),
                platform: self.backend().label(),
            });
        }
        let substitution = match (self.platform(), &algorithm) {
            (Platform::Gpu { .. }, Algorithm::MergeBaseline) => Some(KernelSubstitution {
                requested: algorithm.label().to_string(),
                effective: format!("MPS(skew_threshold={})", u32::MAX),
                reason: "the GPU simulator has no plain-merge baseline; \
                         MKernel with an infinite skew threshold is M",
            }),
            _ => None,
        };
        let partitioning = match self.platform() {
            Platform::CpuParallel(cfg) => Some(*cfg),
            _ => None,
        };
        Ok(Plan {
            reorder: self.reorder_enabled(),
            workload,
            algorithm,
            cpu_kernel,
            partitioning,
            substitution,
        })
    }
}

/// The lane width a modeled machine runs MPS's vector blocks at, whatever
/// the host's tier: 8 on the paper's AVX2 CPU server and 16 on the KNL
/// (their `MachineSpec::vector_lanes`). `None` on the real CPU, where the
/// requested width runs, and on the GPU simulator, whose kernels are its
/// own.
fn modeled_simd(platform: &Platform) -> Option<SimdLevel> {
    match platform {
        Platform::CpuModel { .. } => Some(SimdLevel::Avx2),
        Platform::Knl { .. } => Some(SimdLevel::Avx512),
        Platform::CpuSequential | Platform::CpuParallel(_) | Platform::Gpu { .. } => None,
    }
}
