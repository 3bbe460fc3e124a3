//! The correctness gate: the reference every output is checked against, and
//! the tally of attempted and failed operations.

use cnc_core::{reference_counts, CncView, EdgeCount, PreparedGraph};
use cnc_workload::WorkloadOutput;

/// Size of every `topk` request.
pub const TOPK: usize = 100;

/// One canonical edge (`u < v`) and its reference count: a point query and
/// the answer it must get.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub u: u32,
    pub v: u32,
    pub want: u32,
}

/// The oracle, computed once per run outside every timed region.
pub struct Reference {
    /// `cnc_core::reference_counts`: per-edge counts in the input graph's
    /// directed edge offsets.
    pub counts: Vec<u32>,
    pub triangles: u64,
    /// Every canonical edge with its count: the population point queries
    /// are drawn from.
    pub edges: Vec<Query>,
    /// The top `TOPK` edges in the session's order: descending count, then
    /// ascending `(u, v)`.
    pub top: Vec<EdgeCount>,
}

impl Reference {
    pub fn new(pg: &PreparedGraph) -> Self {
        let g = pg.graph();
        let counts = reference_counts(g);
        let triangles = CncView::new(g, &counts).triangle_count();
        let edges: Vec<Query> = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(eid, u, v)| Query {
                u,
                v,
                want: counts[eid],
            })
            .collect();
        let mut top: Vec<EdgeCount> = edges
            .iter()
            .map(|q| EdgeCount {
                u: q.u,
                v: q.v,
                count: q.want,
            })
            .collect();
        top.sort_unstable_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| (a.u, a.v).cmp(&(b.u, b.v)))
        });
        top.truncate(TOPK);
        Self {
            counts,
            triangles,
            edges,
            top,
        }
    }

    /// CNC outputs must equal the reference byte for byte; triangle outputs
    /// must equal its triangle count.
    pub fn matches(&self, out: &WorkloadOutput) -> bool {
        match out.edge_counts() {
            Some(c) => c == self.counts.as_slice(),
            None => out.global_count() == Some(self.triangles),
        }
    }

    /// A `topk(TOPK)` answer: the candidate total and the top edges.
    pub fn is_topk(&self, total: u64, edges: &[EdgeCount]) -> bool {
        total == self.edges.len() as u64 && edges == self.top.as_slice()
    }
}

/// Attempted and failed operations, with the first few failures on stderr.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: wrong output from {what}");
            }
        }
    }

    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: {what} failed: {err}");
        }
    }

    /// Add what a client thread counted on its own.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
