//! Correctness checks run outside every timed region. Each counts as
//! attempted operations; each violation counts as a failed one.

use mmrepl_baselines::{RequestRouter, RouteDecision};
use mmrepl_core::PlanOutcome;
use mmrepl_model::{ConstraintReport, NodeId, PageId, Placement, SiteId, System};
use mmrepl_online::MigrationQueue;
use mmrepl_serve::{PlacementSnapshot, RouteStats, RouteTarget, Router};
use mmrepl_sim::des_replay;
use mmrepl_workload::{Request, SiteTrace};
use std::sync::Arc;

/// Attempted and failed operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }
}

/// Whether `placement` satisfies Eq. 8-10 on `system`: against the
/// planner's serving nodes on tree systems, the repository on stars.
pub fn feasible(system: &System, placement: &Placement, serving: &[u32]) -> bool {
    let report = if serving.is_empty() {
        ConstraintReport::check(system, placement)
    } else {
        let serving = serving.iter().map(|&n| NodeId::new(n)).collect();
        ConstraintReport::check_with_serving(system, placement, &serving)
    };
    report.is_feasible()
}

/// [`feasible`] for a plan outcome.
pub fn plan_feasible(system: &System, outcome: &PlanOutcome) -> bool {
    feasible(system, &outcome.placement, &outcome.report.serving)
}

/// The DES pricing router: serves each object wherever the placement's
/// partition row puts it.
pub struct PartitionRouter<'a>(pub &'a Placement);

impl RequestRouter for PartitionRouter<'_> {
    fn route(&mut self, _system: &System, page: PageId, optional_slots: &[u32]) -> RouteDecision {
        let row = self.0.partition(page);
        RouteDecision {
            local_compulsory: row.local_compulsory.clone(),
            local_optional: optional_slots
                .iter()
                .map(|&s| row.local_optional[s as usize])
                .collect(),
        }
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

/// The first `n` requests of every site's trace.
pub fn prefix(traces: &[SiteTrace], n: usize) -> Vec<SiteTrace> {
    traces
        .iter()
        .map(|t| SiteTrace {
            site: t.site,
            requests: t.requests[..n.min(t.requests.len())].to_vec(),
        })
        .collect()
}

/// One DES pricing: mean page response including queueing, requests
/// served and events processed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Priced {
    /// Mean page response, seconds.
    pub mean_s: f64,
    /// Page requests the DES completed.
    pub served: u64,
    /// Events the DES processed.
    pub events: u64,
}

/// Prices `placement` with the DES over `traces`, checking that every
/// request given is served.
pub fn price(
    system: &System,
    placement: &Placement,
    traces: &[SiteTrace],
    tally: &mut Tally,
) -> Priced {
    let out = des_replay(system, traces, &mut PartitionRouter(placement));
    let given: u64 = traces.iter().map(|t| t.requests.len() as u64).sum();
    tally.check(out.pages.count() == given);
    Priced {
        mean_s: out.mean_response(),
        served: out.pages.count(),
        events: out.events,
    }
}

/// Re-routes one batch with [`Router::route_with`] on a fresh router and
/// checks every per-object target: a local target must be stored, not
/// overlay-pending and (when `queue` is given) resident in the site's
/// migration queue; a peer must store the object and not be pending.
/// Pushes every request's Eq. 5 estimate onto `latencies`, counts one
/// operation per request, and returns the batch's totals, whose
/// checksum must equal the timed pass's.
pub fn verify_batch(
    snap: &Arc<PlacementSnapshot>,
    site: SiteId,
    batch: &[Request],
    queue: Option<&MigrationQueue>,
    latencies: &mut Vec<f64>,
    tally: &mut Tally,
) -> RouteStats {
    let mut router = Router::new(Arc::clone(snap), site);
    let overlay = snap.overlay();
    for req in batch {
        let mut ok = true;
        let out = router.route_with(req, |k, target| {
            ok &= match target {
                RouteTarget::Local => {
                    snap.stored(site, k)
                        && !overlay.is_pending(site, k)
                        && queue.is_none_or(|q| q.is_resident(k))
                }
                RouteTarget::Peer(p) => snap.stored(p, k) && !overlay.is_pending(p, k),
                RouteTarget::Serving => true,
            };
        });
        latencies.push(out.est_latency);
        tally.check(ok && out.est_latency.is_finite() && out.est_latency > 0.0);
    }
    router.stats().clone()
}
