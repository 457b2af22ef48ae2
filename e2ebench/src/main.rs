//! Command-line entry point.
//!
//! ```text
//! e2ebench --workload <plan-sweep|online-drift> [--seed N]
//!          [--seconds S] [--trace 0|1] [--quick] [--spans-out FILE]
//! ```
//!
//! Prints a metric table, a host stamp, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any correctness check fails or, in
//! a traced run, when layer spans leave more than 5 % of a timed step
//! uncovered (the 99th percentile over each kind of step or sample).

use mmrepl_e2ebench::{host, report, spans, Config, Scale, Workload};
use std::io::Write;
use std::path::PathBuf;

/// The largest share of a timed step's time the layer spans may leave
/// uncovered in a traced run (see `report::unattributed`).
const MAX_UNATTRIBUTED: f64 = 0.05;

const USAGE: &str = "usage: e2ebench --workload <plan-sweep|online-drift> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans-out FILE]";

fn parse() -> Result<(Config, Option<PathBuf>), String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::PlanSweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must lie in [0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => cfg.scale = Scale::Quick,
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok((cfg, spans_out))
}

fn main() {
    let (cfg, spans_out) = parse().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = mmrepl_e2ebench::run(&cfg);

    let mut correct = run.tally.failed == 0;
    let metrics = if cfg.trace {
        let layers = report::per_layer(&run);
        let unattributed = report::unattributed(&run.spans);
        if unattributed > MAX_UNATTRIBUTED {
            eprintln!(
                "e2ebench: layer spans leave {:.1}% of timed steps uncovered (p99; limit {:.0}%)",
                unattributed * 100.0,
                MAX_UNATTRIBUTED * 100.0
            );
            correct = false;
        }
        let path = spans_out.unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
            dir.join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed))
        });
        if let Err(e) = write_spans(&run.spans, &path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
            correct = false;
        }
        print!("{}", report::table(&layers));
        layers
    } else {
        let e2e = report::end_to_end(&run);
        print!("{}", report::table(&e2e));
        // `fail_frac` is 0 on every correct run, so it travels as
        // `failed` / `attempted` rather than as a gated metric.
        e2e.into_iter().filter(|m| m.name != "fail_frac").collect()
    };
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"threads\": {}, \
         \"hardware_pmu\": {}, \"passes\": {}, \"trace\": {}, \"samples\": {{{}}}}}}}",
        cfg.workload.name(),
        cfg.seed,
        host::nproc(),
        run.threads,
        host::hardware_pmu(),
        run.passes,
        cfg.trace,
        samples.join(", ")
    );
    println!("{}", report::result_line(correct, &run, &metrics));
    std::io::stdout().flush().expect("stdout flushes");
    if !correct {
        eprintln!(
            "e2ebench: {} of {} checked operations failed",
            run.tally.failed, run.tally.attempted
        );
        std::process::exit(1);
    }
}

fn write_spans(spans: &[spans::Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_jsonl(spans, &mut out)?;
    out.flush()
}
