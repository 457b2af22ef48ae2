//! The benchmark's own checks at quick scale: its quality outputs are a
//! pure function of the seed, every correctness check passes, a traced
//! run's layer spans nest inside the timed steps, and the metric names
//! agree with `BENCHMARK.json`.

use mmrepl_e2ebench::{report, run, Config, Run, Scale, Workload};
use std::collections::BTreeMap;

fn quick(workload: Workload, seed: u64, trace: bool) -> Run {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Quick,
    })
}

#[test]
fn same_seed_gives_bit_identical_outputs() {
    for w in Workload::ALL {
        let a = report::deterministic(&quick(w, 5, false));
        let b = report::deterministic(&quick(w, 5, false));
        assert_eq!(a, b, "{}", w.name());
        for key in [
            "resp_mean_s",
            "resp_p99_s",
            "queued_resp_mean_s",
            "fail_frac",
        ] {
            assert!(a.contains_key(key), "{}: {key} missing", w.name());
        }
    }
}

#[test]
fn another_seed_changes_the_outputs() {
    for w in Workload::ALL {
        let a = report::deterministic(&quick(w, 5, false));
        let b = report::deterministic(&quick(w, 6, false));
        for key in [
            "resp_mean_s",
            "resp_p99_s",
            "queued_resp_mean_s",
            "route.checksum",
        ] {
            assert_ne!(a[key], b[key], "{}: {key} did not change", w.name());
        }
    }
}

#[test]
fn every_check_passes_and_counts() {
    for w in Workload::ALL {
        let r = quick(w, 9, false);
        assert!(r.tally.attempted > 0, "{}", w.name());
        assert_eq!(r.tally.failed, 0, "{}", w.name());
        assert!(!r.react.is_empty() && !r.path.is_empty(), "{}", w.name());
        assert!(!r.priced.is_empty() && !r.resp.is_empty(), "{}", w.name());
    }
}

/// The off-peak night is too short to finish a replan's fetches, so the
/// migration queues, the overlay and the residency checks see pending
/// replicas rather than always-empty queues.
#[test]
fn online_drift_keeps_fetches_in_flight() {
    let r = quick(Workload::OnlineDrift, 4, false);
    assert!(r.online.replans > 0);
    assert!(r.online.queue_pending_bytes.iter().any(|&b| b > 0.0));
    assert!(r.route.overlay_deflected > 0);
    assert_eq!(r.tally.failed, 0);
}

/// Structural coverage: every timed root has layer calls and they lie
/// inside it. The 5 % time-coverage limit itself is enforced by the
/// binary on full-scale traced runs; at quick scale a sample lasts a few
/// microseconds, so one preemption between two calls would dominate it.
#[test]
fn traced_run_spans_nest_in_their_steps() {
    for w in Workload::ALL {
        let r = quick(w, 3, true);
        let spans = &r.spans;
        let mut children = vec![0usize; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                let root = &spans[p];
                assert!(root.parent.is_none(), "{}: nested child", w.name());
                assert!(
                    root.start_ns <= s.start_ns && s.end_ns <= root.end_ns,
                    "{}: {} escapes {}",
                    w.name(),
                    s.name,
                    root.name
                );
                children[p] += 1;
            }
        }
        let timed: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name.starts_with("step.") || spans[i].name.starts_with("sample."))
            .collect();
        assert!(!timed.is_empty(), "{}: no timed roots", w.name());
        assert!(
            timed.iter().all(|&i| children[i] > 0),
            "{}: a timed root has no layer call",
            w.name()
        );
        assert!(report::unattributed(spans) < 1.0);
    }
}

/// Every `"name": "..."` value in `BENCHMARK.json` under `key`.
fn names_under(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let section = &doc[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let r = quick(Workload::PlanSweep, 1, true);
    let e2e: Vec<String> = report::end_to_end(&r)
        .iter()
        .map(|m| m.name.to_string())
        .filter(|n| n != "fail_frac")
        .collect();
    let layers: Vec<String> = report::per_layer(&r)
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(names_under(&doc, "end_to_end"), e2e);
    assert_eq!(names_under(&doc, "per_layer"), layers);
    let gated = names_under(&doc, "workloads");
    assert!(gated.len() >= 2, "at least two gated workloads");
    for w in &gated {
        assert!(Workload::parse(w).is_some(), "unknown workload {w}");
    }
    let units: BTreeMap<&str, &str> = report::end_to_end(&r)
        .into_iter()
        .chain(report::per_layer(&r))
        .filter(|m| m.name != "fail_frac")
        .map(|m| (m.name, m.unit))
        .collect();
    for (name, unit) in units {
        assert!(
            doc.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] not listed with that unit"
        );
    }
}
