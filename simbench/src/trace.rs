//! Spans around the benchmark's calls into the simulator crates.
//!
//! Every call the benchmark makes into a crate's public function goes
//! through [`Tracer::call`], which always measures the call's host time
//! (the untraced run needs it for set-up and run time) and, when tracing
//! is on, also keeps a [`Span`] in memory until the run ends. A layer's
//! self time is a span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: name, start and end on the run's clock, the span that
/// enclosed it, and the work it did (loads, reads, messages …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `crate::function`, with a `[variant]` suffix where one call site
    /// serves several layer metrics.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work units the call performed (0 when not counted).
    pub work: u64,
}

/// Sums of one span name's self time and work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed self time, host ns.
    pub self_ns: u64,
    /// Summed work.
    pub work: u64,
    /// Number of spans.
    pub calls: u64,
}

impl Totals {
    /// Self nanoseconds per unit of work (0 when no work was recorded).
    pub fn ns_per_work(&self) -> f64 {
        ratio(self.self_ns as f64, self.work as f64)
    }

    /// Mean self nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.self_ns as f64, self.calls as f64)
    }
}

impl std::ops::Add for Totals {
    type Output = Totals;

    fn add(self, o: Totals) -> Totals {
        Totals {
            self_ns: self.self_ns + o.self_ns,
            work: self.work + o.work,
            calls: self.calls + o.calls,
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records spans when on; only measures when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Parent spans opened with [`open`](Self::open) and not yet closed:
    /// `(name, start_ns)`.
    open: Vec<(&'static str, u64)>,
    /// Spans recorded while each open parent was open, patched with the
    /// parent's index when it closes.
    pending_children: Vec<Vec<usize>>,
}

impl Tracer {
    /// A tracer that keeps spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pending_children: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, work: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            work,
        });
        if let Some(children) = self.pending_children.last_mut() {
            children.push(idx);
        }
        idx
    }

    /// Run `f`, returning its result and its host time in nanoseconds; when
    /// tracing is on, keep a span named `name` with `work(&result)` units.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> (R, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        if self.on {
            let w = work(&out);
            self.record(name, start, end, w);
        }
        (out, end.saturating_sub(start))
    }

    /// Open a parent span; every span recorded until the matching
    /// [`close`](Self::close) becomes its child.
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            self.open.push((name, self.now_ns()));
            self.pending_children.push(Vec::new());
        }
    }

    /// Close the innermost open parent span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let (Some((name, start)), Some(children)) = (self.open.pop(), self.pending_children.pop())
        else {
            return;
        };
        let idx = self.record(name, start, end, 0);
        for c in children {
            self.spans[c].parent = Some(idx);
        }
    }

    /// Parent spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close parent spans until `depth` remain open (after a panic skipped
    /// their [`close`](Self::close)).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// The spans kept so far, children before their parents.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name sums of self time and work.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            t.work += s.work;
            t.calls += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_work_is_kept() {
        let mut t = Tracer::new(true);
        t.open("unit");
        let (v, ns) = t.call("leaf", || (0..10_000u64).sum::<u64>(), |_| 7);
        assert_eq!(v, 49_995_000);
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "leaf");
        assert_eq!(spans[0].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, ns);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let totals = t.totals();
        assert_eq!(totals["leaf"].work, 7);
        assert_eq!(totals["leaf"].self_ns, ns);
        let unit = &spans[1];
        assert_eq!(totals["unit"].self_ns, unit.end_ns - unit.start_ns - ns);
    }

    #[test]
    fn an_untraced_run_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.open("unit");
        let (_, _) = t.call("leaf", || 1, |_| 1);
        t.close();
        assert!(t.spans().is_empty());
    }
}
