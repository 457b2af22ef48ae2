//! End-to-end benchmark of the replication pipeline: plan → snapshot
//! build → epoch publish → route, with DES pricing and correctness
//! checks outside the timed regions. See `README.md` next to this crate
//! for the workloads, the metrics and the layer-to-metric map.

#![warn(missing_docs)]

pub mod checks;
pub mod host;
pub mod online_drift;
pub mod plan_sweep;
pub mod report;
pub mod spans;
pub mod stats;

use checks::{Priced, Tally};
use mmrepl_core::PlanReport;
use mmrepl_serve::RouteStats;
use spans::Span;
use std::time::Instant;

/// How big the generated inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on (Table 1).
    Full,
    /// Milliseconds-scale inputs for the crate's own tests.
    Quick,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold plans over the paper's capacity grid.
    PlanSweep,
    /// The online controller under hot-set drift.
    OnlineDrift,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::PlanSweep, Workload::OnlineDrift];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSweep => "plan-sweep",
            Workload::OnlineDrift => "online-drift",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum timed duration; whole passes run until it has elapsed.
    pub seconds: f64,
    /// Record spans (on alternate samples) for per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: u64 = 5;

/// The minimum number of control steps a run times.
pub const MIN_REACT: usize = 100;

/// One timed sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall seconds.
    pub secs: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

/// Work counts the planner reports, summed over the run's distinct
/// plans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Plans summed.
    pub plans: u64,
    /// Storage-restoration candidate-heap pops.
    pub storage_heap_pops: u64,
    /// Capacity-restoration candidate-heap pops.
    pub capacity_heap_pops: u64,
    /// Objects deallocated by either restoration.
    pub deallocs: u64,
    /// Downloads moved back to the repository by capacity restoration.
    pub capacity_moves: u64,
    /// Off-loading rounds (summed over serving nodes on trees).
    pub offload_rounds: u64,
    /// Off-loading control messages.
    pub offload_messages: u64,
    /// Sites promoted off their attach node.
    pub promotions: u64,
}

impl PlanCounts {
    /// Adds one plan's report.
    pub fn add(&mut self, r: &PlanReport) {
        self.plans += 1;
        for s in &r.storage {
            self.storage_heap_pops += s.heap_pops;
            self.deallocs += s.deallocated as u64;
        }
        for c in &r.capacity {
            self.capacity_heap_pops += c.heap_pops;
            self.deallocs += c.deallocated as u64;
            self.capacity_moves += c.moves as u64;
        }
        let offloads = if r.offload_by_node.is_empty() {
            std::slice::from_ref(&r.offload)
        } else {
            &r.offload_by_node[..]
        };
        for o in offloads {
            self.offload_rounds += o.rounds as u64;
            self.offload_messages += o.messages;
        }
        self.promotions += r.promotions as u64;
    }
}

/// What the online controller did over the run's first pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineCounts {
    /// Windows closed.
    pub windows: u64,
    /// Incremental replans.
    pub replans: u64,
    /// Sites replanned, summed over replans.
    pub dirty_sites: u64,
    /// Pages whose target row differed from the live row.
    pub pages_changed: u64,
    /// Diffed pages switched.
    pub pages_applied: u64,
    /// Diffed pages deferred by the churn budget.
    pub pages_deferred: u64,
    /// Bytes scheduled for migration.
    pub migrated_bytes: u64,
    /// Migration-queue depth at each window close, bytes.
    pub queue_pending_bytes: Vec<f64>,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Control-step latencies: trigger until the new snapshot is
    /// visible to `EpochCell::load`.
    pub react: Vec<Sample>,
    /// Request-path sample times.
    pub path: Vec<Sample>,
    /// Requests per request-path sample (all samples are this size).
    pub path_requests: u64,
    /// Eq. 5 estimate of every request routed in the first pass.
    pub resp: Vec<f64>,
    /// DES pricing of every placement published in the first pass.
    pub priced: Vec<Priced>,
    /// Correctness checks.
    pub tally: Tally,
    /// Routing totals of the first pass.
    pub route: RouteStats,
    /// Fold of every first-pass batch checksum, in routing order.
    pub checksum: u64,
    /// Planner work counts.
    pub plan: PlanCounts,
    /// Controller counts (`online-drift` only).
    pub online: OnlineCounts,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Threads the workload ran on.
    pub threads: usize,
    /// Whole passes over the workload's fixed step sequence.
    pub passes: u64,
}

impl Run {
    /// Folds a batch's routing totals into the first-pass totals.
    fn fold_route(&mut self, stats: &RouteStats) {
        let checksum = self.checksum;
        self.route.merge(stats);
        self.checksum = splitmix(checksum ^ stats.checksum);
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Run {
    assert!(
        !mmrepl_obs::enabled(),
        "the library's own tracing must stay off in benchmark runs"
    );
    match cfg.workload {
        Workload::PlanSweep => plan_sweep::run(cfg),
        Workload::OnlineDrift => online_drift::run(cfg),
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds elapsed since `t`.
pub(crate) fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
