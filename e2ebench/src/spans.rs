//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call into a library's public entry
//! point, from the outside: nothing inside the library is instrumented.
//! A *root* span brackets one control step or one request-path sample;
//! each layer call inside it is a child. Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The most layer calls one root span holds (one per site of a
/// paper-scale system, plus slack).
const MAX_CHILDREN: usize = 32;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call (`core.plan`, `serve.publish`, …) or root kind
    /// (`step.*`, `sample.*`, `setup`).
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing root span in the span list.
    pub parent: Option<usize>,
    /// The control step or sample this span belongs to.
    pub step: u64,
    /// Work items the call handled (requests routed; 0 when not
    /// meaningful).
    pub items: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A handle to an open root span; `None` inside means recording is off.
#[derive(Clone, Copy, Debug)]
pub struct Root(Option<usize>);

impl Root {
    /// Whether this step is being recorded.
    pub fn traced(&self) -> bool {
        self.0.is_some()
    }
}

/// The span recorder. Off by default; [`Recorder::set_on`]
/// toggles it between steps, so a traced run can interleave traced and
/// untraced steps to time its own overhead.
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            on: false,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the roots opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span of kind `name` for `step`.
    pub fn open(&mut self, name: &'static str, step: u64) -> Root {
        if !self.on {
            return Root(None);
        }
        // Grow the span list before the root starts, so that pushing its
        // children never reallocates inside the root's interval, where
        // the copy would count as uncovered time.
        self.spans.reserve(MAX_CHILDREN + 1);
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: None,
            step,
            items: 0,
        });
        Root(Some(self.spans.len() - 1))
    }

    /// Renames an open root span, for a step whose kind is known only
    /// after its first call returns.
    pub fn retag(&mut self, root: Root, name: &'static str) {
        if let Some(i) = root.0 {
            self.spans[i].name = name;
        }
    }

    /// Closes a root span opened by [`Recorder::open`].
    pub fn close(&mut self, root: Root) {
        if let Some(i) = root.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as the layer call `name` inside `root`, handling `items`
    /// work items.
    pub fn call<R>(
        &mut self,
        root: Root,
        name: &'static str,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(parent) = root.0 else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            step: self.spans[parent].step,
            items,
        });
        out
    }

    /// The recorded spans, consuming the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (seconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Per root: the summed duration of its children named `name`, for
/// roots that have at least one such child.
pub fn per_root_sums(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(p) = s.parent {
            *sums.entry(p).or_default() += s.secs();
        }
    }
    sums.into_values().collect()
}

/// Per timed root (`step.*` control steps and `sample.*` request-path
/// samples): its kind and the share of its time no layer call covers.
/// Children of one root are sequential calls on one thread, so their
/// durations add without overlap.
pub fn unattributed(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .filter(|(s, _)| {
            s.parent.is_none() && (s.name.starts_with("step.") || s.name.starts_with("sample."))
        })
        .map(|(s, cov)| {
            let total = s.end_ns - s.start_ns;
            (s.name, 1.0 - cov.min(total) as f64 / total.max(1) as f64)
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"step\":{},\"items\":{}}}",
            s.name, s.start_ns, s.end_ns, s.step, s.items
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing_but_runs_the_call() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("step.x", 0);
        assert!(!root.traced());
        assert_eq!(rec.call(root, "core.plan", 0, || 7), 7);
        rec.close(root);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn children_cover_their_root() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_on(true);
        let root = rec.open("step.x", 3);
        rec.call(root, "a", 0, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        rec.call(root, "b", 5, || ());
        rec.close(root);
        let untimed = rec.open("setup", 4);
        rec.close(untimed);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..3]
            .iter()
            .all(|s| s.parent == Some(0) && s.step == 3));
        let un = unattributed(&spans);
        assert_eq!(un.len(), 1, "one timed root");
        assert_eq!(un[0].0, "step.x");
        assert!((0.0..=1.0).contains(&un[0].1));
        assert_eq!(per_root_sums(&spans, "a").len(), 1);
    }
}
