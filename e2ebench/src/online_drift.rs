//! `online-drift`: the E-X5 control loop at paper scale.
//!
//! Storage at 65 %, processing unbounded, half the hot set rotating per
//! epoch, 8 estimation windows per epoch and a churn budget of 25 % of
//! aggregate storage per replan. 8 independent systems each run their
//! own controller through 2 drifted epochs: 16 epochs, 128 windows per
//! pass. Spreading the epochs over 8 systems rather than running 16 on
//! one keeps the response-time figures from hanging on one system's
//! random draws. Each window serves every site through the controller,
//! closes the window, republishes the snapshot when the controller
//! replanned, and routes the window's requests through the live
//! snapshot. Every pass replays the same epochs from clones of the
//! freshly built controllers.

use crate::checks;
use crate::spans::Recorder;
use crate::{secs_since, splitmix, Config, Run, Sample, Scale, MIN_REACT, SETUPS};
use mmrepl_core::ReplicationPolicy;
use mmrepl_model::{Secs, System};
use mmrepl_online::{ChurnBudget, OnlineController};
use mmrepl_serve::{EpochCell, PlacementSnapshot, Router};
use mmrepl_sim::study_online_config;
use mmrepl_workload::{
    generate_system, generate_trace, DriftModel, Request, SiteTrace, TraceConfig, WorkloadParams,
};
use std::sync::Arc;
use std::time::Instant;

/// Independent systems, each with its own controller.
pub const SYSTEMS: u64 = 8;
/// Drifted epochs per system.
pub const EPOCHS: u64 = 2;
/// Estimation windows per epoch.
pub const WINDOWS: usize = 8;
/// Hot-set share rotated per epoch.
const ROTATION: f64 = 0.5;
/// Site storage as a share of full demand.
const STORAGE: f64 = 0.65;
/// Churn budget per replan as a share of aggregate site storage.
const BUDGET: f64 = 0.25;
/// Off-peak full-rate migration drain per site at each window close: a
/// six-hour night, short enough that fetches stay in flight across
/// windows, so the overlay and the queue checks see pending replicas.
const OFFPEAK_SECS: f64 = 21_600.0;
/// Requests per site per epoch: full and quick scale.
const REQUESTS: [usize; 2] = [10_000, 400];
/// Requests per site the DES prices each published placement over.
const DES_PREFIX: usize = 200;

/// One epoch's drifted system and its trace, generated in set-up.
struct Epoch {
    system: System,
    traces: Vec<SiteTrace>,
    des: Vec<SiteTrace>,
    /// Per site: the virtual duration of each window.
    durations: Vec<Vec<Secs>>,
}

/// Per-site virtual duration of `len` requests: requests over the
/// site's aggregate page-request rate.
fn duration(system: &System, trace: &SiteTrace, len: usize) -> Secs {
    let rate: f64 = system
        .pages_of(trace.site)
        .iter()
        .map(|&p| system.page(p).freq.get())
        .sum();
    Secs(len as f64 / rate)
}

fn make_epoch(system: System, traces: Vec<SiteTrace>) -> Epoch {
    let durations = traces
        .iter()
        .map(|t| {
            t.windows(WINDOWS)
                .iter()
                .map(|w| duration(&system, t, w.len()))
                .collect()
        })
        .collect();
    Epoch {
        des: checks::prefix(&traces, DES_PREFIX),
        system,
        traces,
        durations,
    }
}

/// One system's control loop as set up: the controller and the
/// snapshot of the off-line plan it starts from, plus its epochs.
struct Loop {
    snap: Arc<PlacementSnapshot>,
    ctl: OnlineController,
    budget: u64,
    epochs: Vec<Epoch>,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let (params, requests) = match cfg.scale {
        Scale::Full => (WorkloadParams::paper(), REQUESTS[0]),
        Scale::Quick => (WorkloadParams::small(), REQUESTS[1]),
    };
    let trace_cfg = TraceConfig {
        requests_per_site: requests,
        ..TraceConfig::from_params(&params)
    };
    let policy = ReplicationPolicy::new();
    let drift = DriftModel::new(ROTATION);
    let mut run = Run {
        threads: 1,
        ..Run::default()
    };
    let mut rec = Recorder::new(Instant::now());
    rec.set_on(cfg.trace);

    let mut loops: Vec<Loop> = Vec::new();
    for rep in 0..SETUPS {
        loops.clear();
        let t = Instant::now();
        let root = rec.open("setup", rep);
        for k in 0..SYSTEMS {
            let seed = splitmix(splitmix(cfg.seed).wrapping_add(k));
            let base = rec.call(root, "workload.generate_system", 0, || {
                generate_system(&params, seed)
                    .expect("Table 1 parameters are valid")
                    .with_storage_fraction(STORAGE)
                    .with_processing_fraction(f64::INFINITY)
            });
            let stale = rec.call(root, "core.plan", 0, || policy.plan(&base));
            if rep == 0 {
                run.plan.add(&stale.report);
            }
            let snap = rec.call(root, "serve.snapshot_build", 0, || {
                Arc::new(PlacementSnapshot::from_plan(&base, &stale, 0))
            });
            let mut online = study_online_config();
            online.migrate.offpeak_secs = Some(OFFPEAK_SECS);
            let total_storage: u64 = base.sites().iter().map(|(_, s)| s.storage.0).sum();
            let budget = (total_storage as f64 * BUDGET) as u64;
            online.budget = ChurnBudget::bytes(budget);
            let ctl = rec.call(root, "online.new", 0, || {
                OnlineController::new(&base, policy, online)
            });
            let mut epochs: Vec<Epoch> = Vec::new();
            for e in 1..=EPOCHS {
                let prev = epochs.last().map_or(&base, |ep| &ep.system);
                let system = rec.call(root, "workload.drift", 0, || {
                    drift.apply(prev, splitmix(seed ^ e))
                });
                let traces = rec.call(root, "workload.trace_gen", 0, || {
                    generate_trace(&system, &trace_cfg, splitmix(seed ^ (1000 + e)))
                });
                epochs.push(make_epoch(system, traces));
            }
            loops.push(Loop {
                snap,
                ctl,
                budget,
                epochs,
            });
        }
        rec.close(root);
        run.setup_s.push(secs_since(t));
    }
    let min_react = if cfg.scale == Scale::Full {
        MIN_REACT
    } else {
        0
    };

    // Pass-1 fingerprints later passes must reproduce, per window:
    // whether it replanned and the routed checksum fold.
    let mut expect: Vec<(bool, u64)> = Vec::new();
    // The run lasts `cfg.seconds` of workload time: first-pass checks
    // and pricing do not count toward it.
    let start = Instant::now();
    let mut unmeasured = 0.0;
    let mut step = 0u64;
    for pass in 0u64.. {
        let mut window = 0usize;
        for lp in &loops {
            let mut ctl = lp.ctl.clone();
            let cell = EpochCell::new(Arc::clone(&lp.snap));
            for ep in &lp.epochs {
                let windows: Vec<Vec<&[Request]>> =
                    ep.traces.iter().map(|t| t.windows(WINDOWS)).collect();
                for w in 0..WINDOWS {
                    step += 1;
                    window += 1;
                    rec.set_on(cfg.trace && (step + pass).is_multiple_of(2));

                    // Request path, first half: the controller serves
                    // every site's window.
                    let root = rec.open("sample.window", step);
                    let t0 = Instant::now();
                    for (i, t) in ep.traces.iter().enumerate() {
                        let slice = windows[i][w];
                        rec.call(root, "online.serve_window", slice.len() as u64, || {
                            ctl.serve_window(t.site, slice, ep.durations[i][w])
                        });
                    }
                    let serve_s = secs_since(t0);
                    rec.close(root);

                    // Control step: window close → new snapshot visible.
                    let durations: Vec<Secs> = ep.durations.iter().map(|d| d[w]).collect();
                    let scheduled = ctl.bytes_scheduled();
                    let root = rec.open("step.control", step);
                    let t0 = Instant::now();
                    let report =
                        rec.call(root, "online.end_window", 0, || ctl.end_window(&durations));
                    let replanned = report.delta.is_some();
                    if replanned {
                        let snap = rec.call(root, "serve.snapshot_build", 0, || {
                            PlacementSnapshot::build(&ep.system, ctl.placement(), &[], step)
                        });
                        rec.call(root, "serve.overlay_seed", 0, || {
                            snap.seed_overlay(ep.system.sites().ids().map(|s| {
                                let (q, snap) = (ctl.queue(s), &snap);
                                let pending = ep
                                    .system
                                    .objects()
                                    .ids()
                                    .filter(move |&k| snap.stored(s, k) && !q.is_resident(k));
                                (s, pending)
                            }))
                        });
                        rec.call(root, "serve.publish", 0, || cell.publish(Arc::new(snap)));
                    } else {
                        // Nothing is published, so this window close is
                        // not a timed control step.
                        rec.retag(root, "window.close");
                    }
                    let react_s = secs_since(t0);
                    rec.close(root);
                    if replanned {
                        run.react.push(Sample {
                            secs: react_s,
                            traced: root.traced(),
                        });
                    }

                    // Request path, second half: route the window
                    // through the live snapshot.
                    let root = rec.open("sample.window", step);
                    let t0 = Instant::now();
                    let mut batches = Vec::with_capacity(ep.traces.len());
                    for (i, t) in ep.traces.iter().enumerate() {
                        let slice = windows[i][w];
                        batches.push(rec.call(root, "serve.route", slice.len() as u64, || {
                            Router::new(cell.load(), t.site).route_all(slice)
                        }));
                    }
                    let route_s = secs_since(t0);
                    rec.close(root);
                    run.path.push(Sample {
                        secs: serve_s + route_s,
                        traced: root.traced(),
                    });
                    run.path_requests = windows.iter().map(|s| s[w].len() as u64).sum();

                    // Checks, counts and pricing, outside the timed
                    // regions.
                    let fold = batches.iter().fold(0u64, |h, s| splitmix(h ^ s.checksum));
                    if pass > 0 {
                        run.tally.check(expect[window - 1] == (replanned, fold));
                        continue;
                    }
                    expect.push((replanned, fold));
                    let checked = Instant::now();
                    let moved = ctl.bytes_scheduled() - scheduled;
                    run.tally
                        .check(moved <= if replanned { lp.budget } else { 0 });
                    let live = cell.load();
                    for (i, (t, stats)) in ep.traces.iter().zip(&batches).enumerate() {
                        let verified = checks::verify_batch(
                            &live,
                            t.site,
                            windows[i][w],
                            Some(ctl.queue(t.site)),
                            &mut run.resp,
                            &mut run.tally,
                        );
                        run.tally.check(verified.checksum == stats.checksum);
                        run.fold_route(stats);
                    }
                    let c = &mut run.online;
                    c.windows += 1;
                    c.queue_pending_bytes.push(
                        ep.system
                            .sites()
                            .ids()
                            .map(|s| ctl.queue(s).pending_bytes())
                            .sum(),
                    );
                    if let Some(d) = &report.delta {
                        c.replans += 1;
                        c.dirty_sites += d.dirty_sites as u64;
                        c.pages_changed += d.pages_changed as u64;
                        c.pages_applied += d.pages_applied as u64;
                        c.pages_deferred += d.pages_deferred as u64;
                        c.migrated_bytes += d.bytes_migrated;
                        run.tally
                            .check(checks::feasible(&ep.system, ctl.placement(), &[]));
                        rec.set_on(cfg.trace);
                        let root = rec.open("check", step);
                        let priced = rec.call(root, "sim.des", 0, || {
                            checks::price(&ep.system, ctl.placement(), &ep.des, &mut run.tally)
                        });
                        rec.close(root);
                        run.priced.push(priced);
                    }
                    unmeasured += secs_since(checked);
                }
            }
        }
        run.passes = pass + 1;
        if secs_since(start) - unmeasured >= cfg.seconds && run.react.len() >= min_react {
            break;
        }
    }
    run.spans = rec.into_spans();
    run
}
