//! Spans, self times and the tiling check of the traced run.
//!
//! A span has a name, a start and end (host nanoseconds from the start
//! of the traced repetition), a parent and an invocation id (the
//! dispatch sequence number, or the engine-call index on `lukewarm`).
//! A layer's self time is the sum, over its spans, of each span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::probe::{Call, Tag, What};

/// Names of the structural spans: they hold children and should have
/// no self time of their own. Any self time they keep is time no layer
/// claimed.
pub const STRUCTURAL: &[&str] = &["rep", "cluster.run", "cluster.serve", "lukewarm.pair"];

/// The benchmark's own time between timed calls. It is a row of the
/// table, but no layer of the program claims it.
pub const BENCH_LOOP: &str = "bench.loop";

/// Largest share of the traced wall time that may be unclaimed or
/// double counted before the traced run fails.
pub const TILE_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span tree rooted at a `rep` span.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    /// Starts a tree whose root `rep` span opens at `origin`.
    pub fn new(origin: Instant) -> Self {
        let root = Span { name: "rep", start_ns: 0, end_ns: 0, parent: None, id: None };
        Spans { origin, spans: vec![root] }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds a span between two instants and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        parent: usize,
        id: Option<u64>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.push_ns(name, start_ns, end_ns, parent, id)
    }

    pub fn push_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
        id: Option<u64>,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), id });
        self.spans.len() - 1
    }

    /// Closes the root at `end`.
    pub fn close(&mut self, end: Instant) {
        self.spans[0].end_ns = self.ns(end);
    }

    pub fn wall_ns(&self) -> u64 {
        self.spans[0].dur_ns()
    }

    /// Self time per span name, in nanoseconds (negative when children
    /// overlap or overrun their parent).
    pub fn self_times(&self) -> BTreeMap<&'static str, i128> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, i128> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *rows.entry(s.name).or_default() += i128::from(s.dur_ns()) - i128::from(c);
        }
        rows
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = s.id.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{id}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The result of the tiling check.
#[derive(Debug, Clone)]
pub struct Tiling {
    /// Layer rows (structural spans excluded), in milliseconds.
    pub rows: BTreeMap<&'static str, f64>,
    pub wall_ms: f64,
    /// `|sum of rows - wall| / wall`.
    pub error_frac: f64,
    /// Self time left on structural spans, plus the benchmark's own
    /// loop time, as a share of the wall.
    pub unclaimed_frac: f64,
    /// Sum of negative self times (overlapping spans), as a share.
    pub overlap_frac: f64,
}

impl Tiling {
    pub fn ok(&self) -> bool {
        self.error_frac <= TILE_TOLERANCE
            && self.unclaimed_frac <= TILE_TOLERANCE
            && self.overlap_frac <= TILE_TOLERANCE
    }
}

/// Checks that the layer self times tile the root span. Every stretch
/// between two timed calls is a row of its own (a cluster phase, or
/// `bench.loop`), so the rows sum to the wall by construction whenever
/// calls do not overlap. The check fails when they do (nested or
/// out-of-order seam calls: each row is a clamped self time, so the sum
/// overshoots) or when the benchmark's own loop, which no layer of the
/// program claims, exceeds the tolerance.
pub fn tiling(spans: &Spans) -> Tiling {
    let wall = spans.wall_ns() as f64;
    let mut rows = BTreeMap::new();
    let (mut sum, mut unclaimed, mut overlap) = (0.0, 0.0, 0.0);
    for (name, ns) in spans.self_times() {
        let ns = ns as f64;
        if ns < 0.0 {
            overlap -= ns;
        }
        let clamped = ns.max(0.0);
        sum += clamped;
        if STRUCTURAL.contains(&name) {
            unclaimed += clamped;
        } else {
            if name == BENCH_LOOP {
                unclaimed += clamped;
            }
            rows.insert(name, clamped / 1e6);
        }
    }
    let share = |x: f64| if wall > 0.0 { x / wall } else { 0.0 };
    Tiling {
        rows,
        wall_ms: wall / 1e6,
        error_frac: share((sum - wall).abs()),
        unclaimed_frac: share(unclaimed),
        overlap_frac: share(overlap),
    }
}

/// Where a cluster run is between two timed calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Event loop, queues, keep-alive outside dispatch, summaries.
    Des,
    /// After `Dispatch`: policy admission and the store fetch.
    Fetch,
    /// After the store answered: metadata install and context switch.
    Install,
    /// After `ContextSwitch`: inside `run_invocation_obs`.
    Engine,
    /// After the engine returned: take-back, store write-back,
    /// keep-alive, until `Complete`.
    Writeback,
}

/// Name of the time between the previous call and the next one.
fn gap_name(phase: Phase, next: What, engine: &'static str) -> &'static str {
    if next == What::Event(Tag::Routed) {
        return "cluster.sched";
    }
    match phase {
        Phase::Des => "cluster.des_self",
        Phase::Fetch if next == What::Event(Tag::ContextSwitch) => "cluster.install",
        Phase::Fetch => "cluster.store_fetch",
        Phase::Install => "cluster.install",
        Phase::Engine if next == What::Event(Tag::Engine) => engine,
        Phase::Engine | Phase::Writeback => "cluster.writeback",
    }
}

fn next_phase(phase: Phase, call: What) -> Phase {
    match (phase, call) {
        (_, What::Event(Tag::Dispatch)) => Phase::Fetch,
        (_, What::Event(Tag::Complete)) => Phase::Des,
        (Phase::Fetch, What::Event(Tag::StoreHit | Tag::StoreMiss)) => Phase::Install,
        (Phase::Fetch | Phase::Install, What::Event(Tag::ContextSwitch)) => Phase::Engine,
        (Phase::Engine, What::Event(Tag::Engine)) => Phase::Engine,
        (Phase::Engine, _) => Phase::Writeback,
        (p, _) => p,
    }
}

/// Builds the span tree of one traced cluster repetition from the calls
/// logged at the seams. `calls` may come from several adapters; they
/// are merged by entry time. The run occupies `[run_start, run_end]`;
/// `engine` names the engine span (`engine.run.<config>`).
pub fn cluster_spans(
    spans: &mut Spans,
    mut calls: Vec<Call>,
    run_start: Instant,
    run_end: Instant,
    engine: &'static str,
) {
    calls.sort_by_key(|c| c.t0);
    let run = spans.push("cluster.run", run_start, run_end, 0, None);
    let mut phase = Phase::Des;
    let mut serve: Option<usize> = None;
    let mut seq = 0u64;
    let mut prev = run_start;
    for c in calls {
        let parent = serve.unwrap_or(run);
        let id = serve.map(|s| spans.spans[s].id.unwrap_or_default());
        if c.t0 > prev {
            spans.push(gap_name(phase, c.what, engine), prev, c.t0, parent, id);
        }
        match c.what {
            What::Event(Tag::Dispatch) => {
                serve = Some(spans.push("cluster.serve", c.t0, c.t0, run, Some(seq)));
                seq += 1;
            }
            What::Event(Tag::Complete) => {
                if let Some(s) = serve.take() {
                    spans.spans[s].end_ns = spans.ns(c.t0);
                }
            }
            _ => {}
        }
        let parent = serve.unwrap_or(run);
        let id = serve.map(|s| spans.spans[s].id.unwrap_or_default());
        match c.what {
            What::Source => {
                spans.push("traffic.next_arrival", c.t0, c.t1, parent, id);
            }
            What::Hook => {
                spans.push("control.hook", c.t0, c.t1, parent, id);
            }
            What::Event(_) if c.t1 > c.t0 => {
                let fold = spans.push("scope.fold", c.t0, c.t1, parent, id);
                if c.buffer_ns > 0 {
                    let end = spans.ns(c.t1);
                    let start = end.saturating_sub(c.buffer_ns).max(spans.ns(c.t0));
                    spans.push_ns("obs.record", start, end, fold, id);
                }
            }
            What::Event(_) => {}
        }
        phase = next_phase(phase, c.what);
        prev = prev.max(c.t1);
    }
    if run_end > prev {
        spans.push("cluster.des_self", prev, run_end, run, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn call(base: Instant, t0_us: u64, t1_us: u64, what: What) -> Call {
        Call {
            t0: base + Duration::from_micros(t0_us),
            t1: base + Duration::from_micros(t1_us),
            what,
            buffer_ns: 0,
        }
    }

    #[test]
    fn dispatch_phases_tile_the_run() {
        let base = Instant::now();
        let ev = What::Event;
        let calls = vec![
            call(base, 1, 2, What::Source),
            call(base, 3, 3, ev(Tag::Other)),
            call(base, 4, 4, ev(Tag::Dispatch)),
            call(base, 6, 6, ev(Tag::StoreHit)),
            call(base, 7, 7, ev(Tag::ContextSwitch)),
            call(base, 8, 8, ev(Tag::Engine)),
            call(base, 20, 20, ev(Tag::Engine)),
            call(base, 23, 23, ev(Tag::Other)),
            call(base, 24, 24, ev(Tag::Complete)),
        ];
        let mut spans = Spans::new(base);
        let end = base + Duration::from_micros(30);
        cluster_spans(&mut spans, calls, base, end, "engine.run.ignite");
        spans.close(end);
        let t = tiling(&spans);
        assert!(t.ok(), "{t:?}");
        let ms = |n: &str| t.rows.get(n).copied().unwrap_or(0.0) * 1e3;
        assert!((ms("traffic.next_arrival") - 1.0).abs() < 1e-9);
        assert!((ms("cluster.store_fetch") - 2.0).abs() < 1e-9);
        assert!((ms("cluster.install") - 1.0).abs() < 1e-9);
        assert!((ms("engine.run.ignite") - 13.0).abs() < 1e-9);
        assert!((ms("cluster.writeback") - 4.0).abs() < 1e-9);
        assert!((ms("cluster.des_self") - 9.0).abs() < 1e-9);
        assert_eq!(spans.durations("cluster.serve"), vec![20_000]);
    }

    #[test]
    fn overlapping_spans_fail_the_check() {
        let base = Instant::now();
        let mut spans = Spans::new(base);
        spans.push_ns("a", 0, 600, 0, None);
        spans.push_ns("b", 400, 1000, 0, None);
        spans.spans[0].end_ns = 1000;
        assert!(!tiling(&spans).ok());
    }

    #[test]
    fn benchmark_loop_time_fails_the_check() {
        let base = Instant::now();
        let mut spans = Spans::new(base);
        spans.push_ns("engine.flush", 0, 900, 0, None);
        spans.push_ns(BENCH_LOOP, 900, 1000, 0, None);
        spans.spans[0].end_ns = 1000;
        let t = tiling(&spans);
        assert!(t.error_frac < 1e-12 && !t.ok(), "{t:?}");
    }
}
