//! Turns a [`Run`] into named metrics and the result line.

use crate::spans::{self, Span};
use crate::stats::{mean, median, quantile};
use crate::{Run, Sample};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many values the metric is computed from.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Untraced sample times.
fn untraced(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.secs)
        .collect()
}

/// Share of attempted operations that failed.
pub fn fail_frac(run: &Run) -> f64 {
    run.tally.failed as f64 / run.tally.attempted.max(1) as f64
}

/// Mean page response including queueing over every DES pricing,
/// weighted by requests served.
fn queued_mean(run: &Run) -> f64 {
    let served: u64 = run.priced.iter().map(|p| p.served).sum();
    let total: f64 = run.priced.iter().map(|p| p.mean_s * p.served as f64).sum();
    total / served.max(1) as f64
}

/// The end-to-end metrics (from untraced samples) and `fail_frac`.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let react = untraced(&run.react);
    let path = untraced(&run.path);
    vec![
        metric("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        metric("react_p50_s", quantile(&react, 0.5), "s", react.len()),
        metric("react_p90_s", quantile(&react, 0.9), "s", react.len()),
        metric(
            "reqs_per_s",
            run.path_requests as f64 / median(&path),
            "1/s",
            path.len(),
        ),
        metric("resp_mean_s", mean(&run.resp), "s", run.resp.len()),
        metric("resp_p99_s", quantile(&run.resp, 0.99), "s", run.resp.len()),
        metric(
            "queued_resp_mean_s",
            queued_mean(run),
            "s",
            run.priced.len(),
        ),
        metric("peak_rss_mb", crate::host::peak_rss_mib(), "MiB", 1),
        metric(
            "fail_frac",
            fail_frac(run),
            "ratio",
            run.tally.attempted as usize,
        ),
    ]
}

/// Durations of the children named `name` of roots that also have a
/// child named `with`.
fn durations_beside(spans: &[Span], name: &str, with: &str) -> Vec<f64> {
    let roots: std::collections::BTreeSet<usize> = spans
        .iter()
        .filter(|s| s.name == with)
        .filter_map(|s| s.parent)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| roots.contains(&p)))
        .map(Span::secs)
        .collect()
}

/// Nanoseconds per routed request of every traced `serve.route` call.
fn route_ns(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == "serve.route" && s.items > 0)
        .map(|s| s.secs() * 1e9 / s.items as f64)
        .collect()
}

/// Traced over untraced time, minus one, from pairs of samples that did
/// the same work: every pass repeats the same sample sequence, and
/// tracing alternates between passes, so sample `i` of one pass pairs
/// with sample `i` of the next. Falls back to the ratio of medians when
/// the run made a single pass.
fn trace_overhead(run: &Run) -> f64 {
    let passes = run.passes.max(1) as usize;
    let (mut on, mut off) = (0.0, 0.0);
    for xs in [&run.react, &run.path] {
        let per_pass = xs.len() / passes;
        for i in 0..xs.len().saturating_sub(per_pass) {
            let (a, b) = (xs[i], xs[i + per_pass]);
            if a.traced != b.traced {
                let (t, u) = if a.traced { (a, b) } else { (b, a) };
                on += t.secs;
                off += u.secs;
            }
        }
    }
    if off > 0.0 {
        return on / off - 1.0;
    }
    let traced: Vec<f64> = run
        .path
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.secs)
        .collect();
    median(&traced) / median(&untraced(&run.path)) - 1.0
}

/// The uncovered share of timed roots: the 99th percentile within each
/// root kind, and the largest of those over the kinds. A percentile
/// rather than the maximum, because the clock keeps running when the
/// VM is descheduled, and one such pause landing between two layer
/// calls of a sub-millisecond sample would read as uncovered time.
pub fn unattributed(spans: &[Span]) -> f64 {
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, share) in spans::unattributed(spans) {
        by_kind.entry(kind).or_default().push(share);
    }
    by_kind
        .values()
        .map(|shares| quantile(shares, 0.99))
        .fold(0.0, f64::max)
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise report 0 from 0 samples.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let sp = &run.spans;
    let med = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    let q = |xs: &[f64], p: f64| if xs.is_empty() { 0.0 } else { quantile(xs, p) };
    let plan = spans::durations(sp, "core.plan");
    let route = route_ns(sp);
    let end_window = durations_beside(sp, "online.end_window", "serve.publish");
    let serve_window = spans::per_root_sums(sp, "online.serve_window");
    let timed = |name: &'static str, span: &str| {
        let xs = spans::durations(sp, span);
        metric(name, med(xs.clone()), "s", xs.len())
    };
    let p = &run.plan;
    let o = &run.online;
    let r = &run.route;
    let objects = r.objects.max(1) as f64;
    const MIB: f64 = 1024.0 * 1024.0;
    let n_plans = p.plans as usize;
    let n_windows = o.windows as usize;
    vec![
        metric("core.plan_s.p50", q(&plan, 0.5), "s", plan.len()),
        metric("core.plan_s.p90", q(&plan, 0.9), "s", plan.len()),
        metric(
            "core.storage_heap_pops",
            p.storage_heap_pops as f64,
            "count",
            n_plans,
        ),
        metric(
            "core.capacity_heap_pops",
            p.capacity_heap_pops as f64,
            "count",
            n_plans,
        ),
        metric("core.deallocs", p.deallocs as f64, "count", n_plans),
        metric(
            "core.capacity_moves",
            p.capacity_moves as f64,
            "count",
            n_plans,
        ),
        metric(
            "core.offload_rounds",
            p.offload_rounds as f64,
            "count",
            n_plans,
        ),
        metric(
            "core.offload_messages",
            p.offload_messages as f64,
            "count",
            n_plans,
        ),
        metric("core.promotions", p.promotions as f64, "count", n_plans),
        metric(
            "online.end_window_s",
            med(end_window.clone()),
            "s",
            end_window.len(),
        ),
        metric(
            "online.serve_window_s",
            med(serve_window.clone()),
            "s",
            serve_window.len(),
        ),
        metric("online.replans", o.replans as f64, "count", n_windows),
        metric(
            "online.dirty_sites",
            o.dirty_sites as f64,
            "count",
            n_windows,
        ),
        metric(
            "online.pages_applied",
            o.pages_applied as f64,
            "count",
            n_windows,
        ),
        metric(
            "online.pages_deferred",
            o.pages_deferred as f64,
            "count",
            n_windows,
        ),
        metric(
            "online.migrated_mb",
            o.migrated_bytes as f64 / MIB,
            "MiB",
            n_windows,
        ),
        metric(
            "online.queue_pending_mb",
            if o.queue_pending_bytes.is_empty() {
                0.0
            } else {
                // `+ 0.0` turns an empty queue's `-0.0` into `0.0`.
                mean(&o.queue_pending_bytes) / MIB + 0.0
            },
            "MiB",
            o.queue_pending_bytes.len(),
        ),
        metric(
            "online.apply_ratio",
            o.pages_applied as f64 / o.pages_changed.max(1) as f64,
            "ratio",
            o.replans as usize,
        ),
        timed("serve.snapshot_build_s", "serve.snapshot_build"),
        timed("serve.overlay_seed_s", "serve.overlay_seed"),
        timed("serve.publish_s", "serve.publish"),
        metric(
            "serve.route_ns_per_req.p50",
            q(&route, 0.5),
            "ns",
            route.len(),
        ),
        metric(
            "serve.route_ns_per_req.p99",
            q(&route, 0.99),
            "ns",
            route.len(),
        ),
        metric(
            "serve.local_frac",
            r.local as f64 / objects,
            "ratio",
            r.objects as usize,
        ),
        metric(
            "serve.peer_frac",
            r.peer as f64 / objects,
            "ratio",
            r.objects as usize,
        ),
        metric(
            "serve.repo_frac",
            r.repo as f64 / objects,
            "ratio",
            r.objects as usize,
        ),
        metric(
            "serve.overlay_deflected",
            r.overlay_deflected as f64,
            "count",
            r.objects as usize,
        ),
        timed("workload.trace_gen_s", "workload.trace_gen"),
        timed("workload.drift_s", "workload.drift"),
        timed("sim.des_s", "sim.des"),
        metric(
            "sim.des_events",
            run.priced.iter().map(|p| p.events).sum::<u64>() as f64,
            "count",
            run.priced.len(),
        ),
        metric(
            "bench.unattributed_frac",
            unattributed(sp),
            "ratio",
            spans::unattributed(sp).len(),
        ),
        metric(
            "bench.trace_overhead_frac",
            trace_overhead(run),
            "ratio",
            run.react.len() + run.path.len(),
        ),
    ]
}

/// The bit patterns of every output that must be a pure function of the
/// seed: Eq. 5 and DES response estimates, the failure share, the
/// planner and controller counts, and the routing checksums.
pub fn deterministic(run: &Run) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for m in end_to_end(run) {
        if matches!(
            m.name,
            "resp_mean_s" | "resp_p99_s" | "queued_resp_mean_s" | "fail_frac"
        ) {
            out.insert(m.name, m.value.to_bits());
        }
    }
    for m in per_layer(run) {
        if m.unit == "count" || m.unit == "ratio" && !m.name.starts_with("bench.") {
            out.insert(m.name, m.value.to_bits());
        }
    }
    out.insert("route.checksum", run.checksum);
    out.insert("route.requests", run.route.requests);
    out
}

/// Formats a value with every digit it has (shortest round-trip form);
/// non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted.max(1),
        run.tally.failed,
        body.join(", ")
    )
}

/// A human-readable table: name, value, unit, sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<30} {:>16} {:<6} {:>9}\n",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        out.push_str(&format!(
            "{:<30} {:>16.6} {:<6} {:>9}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out
}
