//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A root span groups one unit of work (a 100 ms replay slice, or
//! one ping); every span under it carries the root's id. Spans of the
//! open root are kept until it closes, then folded into per-name
//! aggregates, so memory stays bounded by one root's worth of spans plus
//! the first few roots kept verbatim for the dump.

use std::collections::BTreeMap;
use std::time::Instant;

use lifeguard_metrics::Histogram;

use crate::json::Json;

/// Sentinel for "no parent" and for spans opened while tracing is off.
pub const NONE: usize = usize::MAX;

/// Roots kept verbatim for the span dump.
const KEEP_ROOTS: usize = 3;

/// Rounds of back-to-back empty spans that measure the tracer's own
/// cost; the median round counts, so a preemption in one does not.
const CALIBRATION_ROUNDS: usize = 9;
const CALIBRATION_SPANS: usize = 2000;

/// One finished (or still open) interval, in ns since the tracer epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: usize,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers. Children may nest (their own
/// children do not count against the grandparent) and may overlap each
/// other or stick out of the parent (only the covered part counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent) {
            c.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per-name totals over every closed root.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Per-call duration, ns.
    pub dur: Histogram,
}

/// The span recorder. With tracing off, every call is a branch and
/// nothing else: no clock reads, no stores.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    // bounded: one root's spans; cleared when the root closes
    spans: Vec<Span>,
    // bounded: nesting depth of the harness's call tree
    stack: Vec<usize>,
    pub agg: BTreeMap<&'static str, Agg>,
    // bounded: KEEP_ROOTS roots
    kept: Vec<Span>,
    roots_closed: usize,
    /// Wall time the tracer itself spends outside the spans it records,
    /// per span opened: the clock read and bookkeeping between a span's
    /// close and the next one's open. Measured once, when tracing is on.
    pub span_cost_ns: f64,
    /// Per root: share of its duration that its direct children cover,
    /// plus [`Tracer::span_cost_ns`] for each child opened live; what is
    /// left is work that no span measures. At most 1.
    // bounded: one entry per root, and a run has a fixed number of roots
    pub coverage: Vec<f64>,
    /// The same share without the tracer's cost credited.
    // bounded: one entry per root, as `coverage`
    pub coverage_raw: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let mut t = Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            agg: BTreeMap::new(),
            kept: Vec::new(),
            roots_closed: 0,
            span_cost_ns: 0.0,
            coverage: Vec::new(),
            coverage_raw: Vec::new(),
        };
        if enabled {
            t.span_cost_ns = t.calibrate();
        }
        t
    }

    /// The uncovered time per child of a root holding nothing but empty
    /// children opened back to back: the tracer's cost per span.
    fn calibrate(&mut self) -> f64 {
        let mut rounds: Vec<f64> = (0..CALIBRATION_ROUNDS)
            .map(|_| {
                let root = self.open("calibration", 0);
                for _ in 0..CALIBRATION_SPANS {
                    let h = self.open("calibration.empty", 0);
                    self.close(h);
                }
                self.spans[root].end = self.now_ns();
                self.stack.clear();
                let gap = self_times(&self.spans)[0];
                self.spans.clear();
                gap as f64 / CALIBRATION_SPANS as f64
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        rounds[CALIBRATION_ROUNDS / 2]
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The tracer-epoch timestamp of `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one (a root when none is
    /// open); returns its handle for [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        if !self.enabled {
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost span, which must be `handle`.
    #[inline]
    pub fn close(&mut self, handle: usize) {
        if handle == NONE {
            return;
        }
        let end = self.now_ns();
        self.spans[handle].end = end;
        debug_assert_eq!(
            self.stack.last(),
            Some(&handle),
            "spans close in LIFO order"
        );
        self.stack.pop();
        if self.stack.is_empty() {
            self.finish_root(self.span_cost_ns);
        }
    }

    /// Records a whole root whose intervals were timed elsewhere (spans
    /// that overlap other roots, like an open-loop ping's ack wait).
    /// `children` name their parent by index into `[root, children..]`.
    pub fn record_root(&mut self, root: Span, children: &[Span]) {
        if !self.enabled {
            return;
        }
        debug_assert!(self.stack.is_empty(), "record_root inside an open root");
        self.spans.push(Span {
            parent: NONE,
            ..root
        });
        self.spans.extend_from_slice(children);
        self.finish_root(0.0);
    }

    /// Folds the open root into the aggregates; `span_cost_ns` is the
    /// tracer's cost credited per direct child (0 for recorded roots,
    /// whose intervals were timed without the tracer).
    fn finish_root(&mut self, span_cost_ns: f64) {
        let selfs = self_times(&self.spans);
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let a = self.agg.entry(s.name).or_default();
            let dur = s.end.saturating_sub(s.start);
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += own;
            a.dur.record(dur);
        }
        // A leaf root (a lone API sample) has nothing to cover.
        if let (Some(root), Some(&root_self), true) =
            (self.spans.first(), selfs.first(), self.spans.len() > 1)
        {
            let dur = root.end.saturating_sub(root.start) as f64;
            if dur > 0.0 {
                let children = self.spans.iter().filter(|s| s.parent == 0).count();
                let raw = 1.0 - root_self as f64 / dur;
                self.coverage_raw.push(raw);
                self.coverage
                    .push((raw + children as f64 * span_cost_ns / dur).min(1.0));
            }
        }
        if self.roots_closed < KEEP_ROOTS {
            self.kept.extend_from_slice(&self.spans);
        }
        self.roots_closed += 1;
        self.spans.clear();
    }

    /// Aggregate for one span name (empty if never recorded).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).cloned().unwrap_or_default()
    }

    /// Aggregates plus the first roots' spans, for the dump file.
    pub fn to_json(&self) -> Json {
        let mut names = Json::obj();
        for (name, a) in &self.agg {
            let mut o = Json::obj();
            o.push("count", a.count)
                .push("total_ns", a.total_ns)
                .push("self_ns", a.self_ns)
                .push("p50_ns", a.dur.quantile(50.0).unwrap_or(0.0))
                .push("p99_ns", a.dur.quantile(99.0).unwrap_or(0.0));
            names.push(name, o);
        }
        let kept = self
            .kept
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.push("name", s.name)
                    .push("id", s.id)
                    .push("start_ns", s.start)
                    .push("end_ns", s.end);
                if s.parent != NONE {
                    o.push("parent", s.parent);
                }
                o
            })
            .collect();
        let mut out = Json::obj();
        out.push("roots", self.roots_closed)
            .push("by_name", names)
            .push("first_roots", Json::Arr(kept));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: usize, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,35); root > b [50,60)
        let spans = [
            span("root", NONE, 0, 100),
            span("a", 0, 10, 40),
            span("a1", 1, 15, 35),
            span("b", 0, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        // Children [10,50) and [30,70) overlap by 20; [90,130) sticks
        // out of the root's end at 100.
        let spans = [
            span("root", NONE, 0, 100),
            span("x", 0, 10, 50),
            span("y", 0, 30, 70),
            span("z", 0, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child covering everything leaves no self time.
        let full = [span("root", NONE, 5, 10), span("c", 0, 0, 20)];
        assert_eq!(self_times(&full)[0], 0);
    }

    #[test]
    fn tracer_aggregates_roots_and_coverage() {
        let mut t = Tracer::new(true);
        for id in 0..5 {
            let root = t.open("slice", id);
            let c = t.open("work", id);
            std::hint::black_box((0..1000).sum::<u64>());
            t.close(c);
            t.close(root);
        }
        assert_eq!(t.get("slice").count, 5);
        assert_eq!(t.get("work").count, 5);
        assert_eq!(t.coverage.len(), 5);
        let slice = t.get("slice");
        assert_eq!(slice.total_ns, slice.self_ns + t.get("work").total_ns);
        let dump = Json::parse(&t.to_json().render()).unwrap();
        assert_eq!(dump.get("roots"), Some(&Json::Int(5)));
    }

    #[test]
    fn coverage_credits_the_tracer_but_not_unspanned_work() {
        let mut t = Tracer::new(true);
        assert!(t.span_cost_ns > 0.0);
        let busy =
            |n: u64| std::hint::black_box((0..std::hint::black_box(n)).fold(0u64, |a, x| a ^ x));
        // Only the tracer runs between spans.
        let root = t.open("slice", 0);
        for _ in 0..1000 {
            let c = t.open("work", 0);
            busy(2000);
            t.close(c);
        }
        t.close(root);
        // As much work again outside any span.
        let root = t.open("slice", 1);
        for _ in 0..1000 {
            let c = t.open("work", 1);
            busy(2000);
            t.close(c);
            busy(2000);
        }
        t.close(root);
        assert!(t.coverage[0] > t.coverage_raw[0]);
        assert!(t.coverage[0] > 0.9, "tracer-only gaps: {}", t.coverage[0]);
        assert!(t.coverage[1] < 0.7, "unspanned work: {}", t.coverage[1]);
    }

    #[test]
    fn recorded_roots_use_their_own_intervals() {
        let mut t = Tracer::new(true);
        t.record_root(
            span("ping", NONE, 100, 300),
            &[span("encode", 0, 120, 130), span("ack_wait", 0, 150, 400)],
        );
        assert_eq!(t.get("ping").self_ns, 200 - 10 - 150);
        assert!((t.coverage[0] - 0.8).abs() < 1e-12);
        assert_eq!(t.coverage, t.coverage_raw);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.open("slice", 1);
        assert_eq!(h, NONE);
        t.close(h);
        t.record_root(span("ping", NONE, 0, 1), &[]);
        assert!(t.agg.is_empty());
    }
}
