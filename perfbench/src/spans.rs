//! The wall clock and the in-memory span recorder of traced runs.
//!
//! A span covers one call into a layer: its name is `<layer>.<call>`, it
//! records start and end, the span that was open when it began, and an
//! operation id shared by every span of one artifact or job. Spans stay
//! in memory until the run ends and are then written as JSONL. With the
//! recorder off, [`Tracer::span`] only calls its closure, so untraced
//! runs measure the program as users run it.

use std::collections::BTreeMap;
use std::time::Instant;

use oraclesize_runtime::Json;

/// Reads the monotonic clock. Every timing in the benchmark starts here.
pub fn now() -> Instant {
    // lint:allow(D002): the benchmark exists to read the wall clock; its
    // readings go to the benchmark's own report, never into artifacts.
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call, returning its result and its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `runtime.render`.
    pub name: &'static str,
    /// The artifact or job this span belongs to.
    pub op: u64,
    /// Index of the span open when this one began.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` of operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Per-layer self time, in seconds, of each operation: a span's
    /// duration minus the part of it that its child spans cover, summed
    /// by layer. Keyed by operation id, then layer.
    pub fn self_time_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    union += b - a;
                    cursor = b;
                }
            }
            let own = s.dur_ns().saturating_sub(union) as f64 / 1e9;
            *out.entry(s.op).or_default().entry(s.layer()).or_default() += own;
        }
        out
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::U64(p as u64));
            let line = Json::obj()
                .field("id", i)
                .field("parent", parent)
                .field("op", s.op)
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns);
            text.push_str(&line.render());
            text.push('\n');
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("client.artifact", 1, None, 0, 100),
            span("bench.from_spec", 1, Some(0), 10, 30),
            span("runtime.batch", 1, Some(0), 30, 90),
            // A grandchild: subtracted from its parent only.
            span("runtime.render", 1, Some(2), 80, 90),
            span("client.artifact", 2, None, 200, 250),
        ];
        let by_op = t.self_time_by_op();
        let op1 = &by_op[&1];
        assert!((op1["client"] - 20e-9).abs() < 1e-15);
        assert!((op1["bench"] - 20e-9).abs() < 1e-15);
        assert!((op1["runtime"] - 60e-9).abs() < 1e-15);
        assert!((by_op[&2]["client"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("client.artifact", 7, |t| t.span("runtime.render", 7, |_| 5));
        assert_eq!(v, 5);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("client.artifact", 1, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
