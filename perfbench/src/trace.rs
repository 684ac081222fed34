//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is one call: its name (`layer.operation`), start and end on a
//! clock shared by every thread of the run, the span that was open when it
//! began, and the upload or query it served. A group span instead frames
//! several calls the benchmark makes in sequence (a phase, or the inner
//! calls of one public call it splits), so its self time is the
//! benchmark's own. Spans named `bench.*` time the benchmark's own work —
//! checking outputs, waiting for the next publish. Spans stay in memory and
//! are written out once, at exit, as Chrome trace-event JSON. With tracing
//! off every call is a no-op, so the timed runs pay nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `stream.offer`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The upload or query this call served.
    pub id: u64,
    /// Recording thread.
    pub tid: u32,
    /// Frames several calls rather than timing one.
    pub group: bool,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Threads of one run share `origin` so their
/// spans line up on one time axis.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Tracer {
            on,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer::new(self.on, self.origin, tid)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a call span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        self.open_span(name, id, false);
    }

    /// Open a group span nested in the innermost open one.
    pub fn group(&mut self, name: &'static str, id: u64) {
        self.open_span(name, id, true);
    }

    fn open_span(&mut self, name: &'static str, id: u64, group: bool) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            tid: self.tid,
            group,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span (call or group).
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let r = f();
        self.exit();
        r
    }

    /// Fold another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans, in the order they opened per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children nest inside their parent and do not overlap
/// (one thread runs one call at a time), so that cover is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals: calls, summed self time, and every call's duration.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += o;
        l.durations_ns.push(s.dur_ns());
    }
    out
}

/// Whether a span times the benchmark's own work rather than a layer's.
pub fn is_bench(name: &str) -> bool {
    name.starts_with("bench.")
}

/// How much of one phase (root span) the layers account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cover {
    pub phase: &'static str,
    /// The phase's wall time less its `bench.*` spans.
    pub wall_ns: u64,
    /// Self time of the call spans beneath the phase, outside `bench.*`
    /// spans. Group spans' self time is the benchmark's bookkeeping
    /// between calls and stays unaccounted.
    pub covered_ns: u64,
}

/// The cover of every phase.
pub fn phase_cover(spans: &[Span]) -> Vec<Cover> {
    let own = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut in_bench = vec![false; spans.len()];
    let mut covers: BTreeMap<usize, Cover> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so the parent's root is known.
        let Some(p) = s.parent else {
            root_of[i] = i;
            let cover = Cover {
                phase: s.name,
                wall_ns: s.dur_ns(),
                covered_ns: 0,
            };
            covers.insert(i, cover);
            continue;
        };
        root_of[i] = root_of[p];
        let cover = covers.get_mut(&root_of[i]).expect("the root precedes");
        if in_bench[p] {
            in_bench[i] = true;
        } else if is_bench(s.name) {
            in_bench[i] = true;
            cover.wall_ns = cover.wall_ns.saturating_sub(s.dur_ns());
        } else if !s.group {
            cover.covered_ns += own[i];
        }
    }
    covers.into_values().collect()
}

/// Chrome trace-event JSON (complete `X` events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            tid: 0,
            group: false,
        }
    }

    fn group(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            group: true,
            ..span(name, start_ns, end_ns, parent)
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("phase", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        // Self times telescope: they sum to the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let cover = phase_cover(&spans);
        assert_eq!(
            (cover[0].phase, cover[0].wall_ns, cover[0].covered_ns),
            ("phase", 100, 70)
        );
        let layers = by_name(&spans);
        assert_eq!(layers["a"].self_ns, 30);
        assert_eq!(layers["a"].durations_ns, vec![40]);
    }

    #[test]
    fn cover_leaves_out_bench_work_and_group_bookkeeping() {
        let spans = [
            group("phase", 0, 1000, None),
            // A split public call: 10 ns of bookkeeping around two calls.
            group("cluster.offer", 0, 100, Some(0)),
            span("cluster.leader_offer", 0, 60, Some(1)),
            span("cluster.follower_apply", 60, 90, Some(1)),
            // Checking and waiting: out of the wall time, calls inside too.
            span("bench.verify", 100, 300, Some(0)),
            span("store.query", 150, 250, Some(4)),
            span("bench.idle", 300, 900, Some(0)),
            span("queryd.publish", 900, 980, Some(0)),
            group("phase2", 1000, 1010, None),
        ];
        let cover = phase_cover(&spans);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover[0].phase, "phase");
        // 1000 − 200 (verify) − 600 (idle) = 200 ns of layer-facing time.
        assert_eq!(cover[0].wall_ns, 200);
        // 60 + 30 + 80: calls only, not the group's 10 ns nor the phase's 20.
        assert_eq!(cover[0].covered_ns, 170);
        assert_eq!((cover[1].wall_ns, cover[1].covered_ns), (10, 0));
    }

    #[test]
    fn recorder_nests_and_absorbs_other_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 0);
        t.group("phase", 0);
        t.span("leaf", 7, || ());
        t.exit();
        let mut other = t.fork(1);
        other.enter("phase2", 0);
        other.span("leaf2", 8, || ());
        other.exit();
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].tid, 1);
        assert!(s[0].group && !s[1].group && !s[2].group);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(chrome_json(s).starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.enter("phase", 0);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
