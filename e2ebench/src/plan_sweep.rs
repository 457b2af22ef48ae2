//! `plan-sweep`: cold plans at paper scale over the capacity grid.
//!
//! 10 seeds × {star, edge tree} × 5 (storage, processing) fraction
//! pairs = 100 control steps per pass. The pairs form a Latin square
//! over the seeds: seed `k` takes processing fraction `(j + k) mod 5`
//! with storage fraction `j`, so each topology visits all 25 cells of
//! the 5 × 5 capacity grid twice. Spreading the grid over 10 systems
//! rather than 2 keeps the response-time figures from hanging on one
//! system's random draws. Each step plans, builds the snapshot from the
//! plan and publishes it; the system's fixed trace is then routed
//! through the published snapshot, one batch per site.

use crate::checks;
use crate::spans::Recorder;
use crate::{secs_since, splitmix, Config, Run, Sample, Scale, SETUPS};
use mmrepl_core::ReplicationPolicy;
use mmrepl_model::{ObjectId, SiteId, System};
use mmrepl_serve::{EpochCell, PlacementSnapshot, Router};
use mmrepl_workload::{
    generate_system, generate_trace, SiteTrace, TopologyParams, TraceConfig, WorkloadParams,
};
use std::sync::Arc;
use std::time::Instant;

/// Storage fractions of the grid (share of each site's full demand).
pub const STORAGE: [f64; 5] = [0.3, 0.45, 0.6, 0.75, 0.9];
/// Processing fractions of the grid (share of each site's full load).
pub const PROCESSING: [f64; 5] = [0.5, 0.625, 0.75, 0.875, 1.0];
/// Independent systems (seeds) the grid is spread over.
const SEEDS: u64 = 10;
/// Requests per site in the routed trace, and per routed batch.
const BATCH: [usize; 2] = [1000, 100];
/// Requests per site the DES prices each plan over.
const DES_PREFIX: usize = 200;

/// One generated base system and its fixed trace.
struct Base {
    system: System,
    traces: Vec<SiteTrace>,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let (params, batch) = match cfg.scale {
        Scale::Full => (WorkloadParams::paper(), BATCH[0]),
        Scale::Quick => (WorkloadParams::small(), BATCH[1]),
    };
    let trace_cfg = TraceConfig {
        requests_per_site: batch,
        ..TraceConfig::from_params(&params)
    };
    let policy = ReplicationPolicy::new();
    let mut run = Run {
        threads: mmrepl_core::effective_threads(0, params.n_sites),
        path_requests: batch as u64,
        ..Run::default()
    };
    let mut rec = Recorder::new(Instant::now());
    rec.set_on(cfg.trace);

    let mut setup: Option<(Vec<Base>, EpochCell<PlacementSnapshot>)> = None;
    for rep in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        let root = rec.open("setup", rep);
        let mut bases = Vec::new();
        for k in 0..SEEDS {
            let seed = splitmix(splitmix(cfg.seed).wrapping_add(k));
            for topology in [TopologyParams::origin(), TopologyParams::edge()] {
                let p = WorkloadParams {
                    topology,
                    ..params.clone()
                };
                let system = rec.call(root, "workload.generate_system", 0, || {
                    generate_system(&p, seed).expect("Table 1 parameters are valid")
                });
                let traces = rec.call(root, "workload.trace_gen", 0, || {
                    generate_trace(&system, &trace_cfg, seed)
                });
                bases.push(Base { system, traces });
            }
        }
        let first = constrained(&bases[0].system, STORAGE[0], PROCESSING[0]);
        let outcome = rec.call(root, "core.plan", 0, || policy.plan(&first));
        let snap = rec.call(root, "serve.snapshot_build", 0, || {
            PlacementSnapshot::from_plan(&first, &outcome, 0)
        });
        let cell = EpochCell::new(Arc::new(snap));
        rec.close(root);
        run.setup_s.push(secs_since(t));
        setup = Some((bases, cell));
    }
    let (bases, cell) = setup.expect("at least one set-up");

    // Bases come in (star, edge) pairs per seed.
    let grid: Vec<(usize, f64, f64)> = (0..bases.len())
        .flat_map(|b| {
            let k = b / 2;
            (0..STORAGE.len()).map(move |j| (b, STORAGE[j], PROCESSING[(j + k) % PROCESSING.len()]))
        })
        .collect();
    let des_traces: Vec<Vec<SiteTrace>> = bases
        .iter()
        .map(|b| checks::prefix(&b.traces, DES_PREFIX))
        .collect();
    // Pass-1 fingerprints every later pass must reproduce: the plan's
    // objective bits and each routed batch's checksum.
    let mut expect_plan: Vec<u64> = Vec::new();
    let mut expect_batches: Vec<u64> = Vec::new();
    // The run lasts `cfg.seconds` of workload time: first-pass checks
    // and pricing do not count toward it.
    let start = Instant::now();
    let mut unmeasured = 0.0;
    let mut step = 0u64;
    for pass in 0u64.. {
        let mut batch_idx = 0usize;
        for (gi, &(b, s, p)) in grid.iter().enumerate() {
            let base = &bases[b];
            let system = constrained(&base.system, s, p);
            step += 1;
            rec.set_on(cfg.trace && (gi as u64 + pass).is_multiple_of(2));

            // Control step: plan request → snapshot visible to loads.
            let root = rec.open("step.control", step);
            let t0 = Instant::now();
            let outcome = rec.call(root, "core.plan", 0, || policy.plan(&system));
            let snap = rec.call(root, "serve.snapshot_build", 0, || {
                PlacementSnapshot::from_plan(&system, &outcome, step)
            });
            rec.call(root, "serve.overlay_seed", 0, || {
                snap.seed_overlay(std::iter::empty::<(SiteId, Vec<ObjectId>)>())
            });
            rec.call(root, "serve.publish", 0, || cell.publish(Arc::new(snap)));
            let react = secs_since(t0);
            rec.close(root);
            run.react.push(Sample {
                secs: react,
                traced: root.traced(),
            });

            // Request path: one route_all batch per site.
            let mut batches = Vec::with_capacity(base.traces.len());
            for t in &base.traces {
                let root = rec.open("sample.route", step);
                let t0 = Instant::now();
                let stats = rec.call(root, "serve.route", t.requests.len() as u64, || {
                    Router::new(cell.load(), t.site).route_all(&t.requests)
                });
                let secs = secs_since(t0);
                rec.close(root);
                run.path.push(Sample {
                    secs,
                    traced: root.traced(),
                });
                batches.push(stats);
            }

            // Checks and pricing, outside the timed regions.
            if pass > 0 {
                run.tally
                    .check(expect_plan[gi] == outcome.report.objective.to_bits());
                for stats in &batches {
                    run.tally.check(expect_batches[batch_idx] == stats.checksum);
                    batch_idx += 1;
                }
                continue;
            }
            let checked = Instant::now();
            run.tally.check(checks::plan_feasible(&system, &outcome));
            run.plan.add(&outcome.report);
            expect_plan.push(outcome.report.objective.to_bits());
            let live = cell.load();
            for (t, stats) in base.traces.iter().zip(&batches) {
                let verified = checks::verify_batch(
                    &live,
                    t.site,
                    &t.requests,
                    None,
                    &mut run.resp,
                    &mut run.tally,
                );
                run.tally.check(verified.checksum == stats.checksum);
                expect_batches.push(stats.checksum);
                run.fold_route(stats);
            }
            rec.set_on(cfg.trace);
            let root = rec.open("check", step);
            let priced = rec.call(root, "sim.des", 0, || {
                checks::price(&system, &outcome.placement, &des_traces[b], &mut run.tally)
            });
            rec.close(root);
            run.priced.push(priced);
            unmeasured += secs_since(checked);
        }
        run.passes = pass + 1;
        if secs_since(start) - unmeasured >= cfg.seconds {
            break;
        }
    }
    run.spans = rec.into_spans();
    run
}

/// `system` with storage and processing capacities set to the given
/// shares of each site's full demand.
fn constrained(system: &System, storage: f64, processing: f64) -> System {
    system
        .with_storage_fraction(storage)
        .with_processing_fraction(processing)
}
