//! Timing adapters for the simulator's public seams.
//!
//! The traced run wraps the [`ArrivalSource`], [`PolicyHook`] and
//! [`EventSink`] it hands to `ClusterSim::run_source_policy_obs` and
//! timestamps every call that crosses them. Nothing inside the library
//! changes: the simulator sees ordinary trait objects. The calls are
//! kept in memory and attributed to layers after the run (see
//! [`crate::layers`]).

use std::cell::RefCell;
use std::time::Instant;

use ignite_cluster::{ClusterGauges, ControllerStats, Decision, PolicyHook, PolicySample};
use ignite_obs::{Event, EventKind, EventSink, NullSink, TraceBuffer};
use ignite_scope::ScopeAnalyzer;
use ignite_workloads::arrival::{Arrival, ArrivalSource};

/// What one timed call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// `ArrivalSource::next_arrival`.
    Source,
    /// A `PolicyHook` method other than `enabled` (a constant or a
    /// field read, called several times per dispatch: timing it would
    /// cost more than it does).
    Hook,
    /// `EventSink::record` of an event of this kind.
    Event(Tag),
}

/// Event kinds, reduced to the ones that bound a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Routed,
    Dispatch,
    StoreHit,
    StoreMiss,
    ContextSwitch,
    /// Emitted by the engine inside `run_invocation_obs`.
    Engine,
    Complete,
    Other,
}

impl Tag {
    fn of(kind: &EventKind) -> Tag {
        match kind {
            EventKind::Routed { .. } => Tag::Routed,
            EventKind::Dispatch { .. } => Tag::Dispatch,
            EventKind::StoreHit { .. } => Tag::StoreHit,
            EventKind::StoreMiss { .. } => Tag::StoreMiss,
            EventKind::ContextSwitch => Tag::ContextSwitch,
            EventKind::RecordBegin { .. }
            | EventKind::RecordEnd { .. }
            | EventKind::ReplayBegin { .. }
            | EventKind::ReplayEnd { .. }
            | EventKind::ReplayDegraded { .. }
            | EventKind::TopDown { .. } => Tag::Engine,
            EventKind::Complete { .. } => Tag::Complete,
            _ => Tag::Other,
        }
    }
}

/// One timed call: entry and exit instants, and for sink calls the
/// part of it spent inside the innermost event buffer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub t0: Instant,
    pub t1: Instant,
    pub what: What,
    pub buffer_ns: u64,
}

/// Wraps an arrival source on the untraced run: it reads the clock on
/// every pull, which cuts a repetition into segments that are the same
/// work in every repetition of a seed.
pub struct SegmentSource {
    inner: Box<dyn ArrivalSource>,
    pub stamps: Vec<Instant>,
}

impl SegmentSource {
    pub fn new(inner: Box<dyn ArrivalSource>) -> Self {
        SegmentSource { inner, stamps: Vec::new() }
    }
}

impl ArrivalSource for SegmentSource {
    fn functions(&self) -> usize {
        self.inner.functions()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.stamps.push(Instant::now());
        self.inner.next_arrival()
    }
}

/// Wraps an arrival source and times every pull.
pub struct TimingSource {
    inner: Box<dyn ArrivalSource>,
    pub calls: Vec<Call>,
}

impl TimingSource {
    pub fn new(inner: Box<dyn ArrivalSource>) -> Self {
        TimingSource { inner, calls: Vec::new() }
    }
}

impl ArrivalSource for TimingSource {
    fn functions(&self) -> usize {
        self.inner.functions()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let t0 = Instant::now();
        let a = self.inner.next_arrival();
        let t1 = Instant::now();
        self.calls.push(Call { t0, t1, what: What::Source, buffer_ns: 0 });
        a
    }
}

/// Wraps a policy and times every hook except `enabled`, which is
/// forwarded so a disabled policy stays disabled. Some hooks take
/// `&self`, so the log sits behind a `RefCell`.
pub struct TimingPolicy<P> {
    pub inner: P,
    pub calls: RefCell<Vec<Call>>,
}

impl<P: PolicyHook> TimingPolicy<P> {
    pub fn new(inner: P) -> Self {
        TimingPolicy { inner, calls: RefCell::new(Vec::new()) }
    }

    fn log(&self, t0: Instant) {
        let t1 = Instant::now();
        self.calls.borrow_mut().push(Call { t0, t1, what: What::Hook, buffer_ns: 0 });
    }
}

impl<P: PolicyHook> PolicyHook for TimingPolicy<P> {
    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn observe(&mut self, sample: &PolicySample) {
        let t0 = Instant::now();
        self.inner.observe(sample);
        self.log(t0);
    }

    fn epoch_due(&self, now: u64) -> bool {
        let t0 = Instant::now();
        let r = self.inner.epoch_due(now);
        self.log(t0);
        r
    }

    fn on_epoch(&mut self, now: u64, gauges: &ClusterGauges) -> Vec<Decision> {
        let t0 = Instant::now();
        let r = self.inner.on_epoch(now, gauges);
        self.log(t0);
        r
    }

    fn replay_admitted(&mut self, function: u32) -> bool {
        let t0 = Instant::now();
        let r = self.inner.replay_admitted(function);
        self.log(t0);
        r
    }

    fn store_admitted(&mut self, function: u32, bytes: u64) -> bool {
        let t0 = Instant::now();
        let r = self.inner.store_admitted(function, bytes);
        self.log(t0);
        r
    }

    fn active_cores(&self, cores_per_node: usize) -> usize {
        let t0 = Instant::now();
        let r = self.inner.active_cores(cores_per_node);
        self.log(t0);
        r
    }

    fn keepalive_window(&self, function: u32) -> Option<u64> {
        let t0 = Instant::now();
        let r = self.inner.keepalive_window(function);
        self.log(t0);
        r
    }

    fn finish(&mut self, makespan: u64) -> Option<ControllerStats> {
        let t0 = Instant::now();
        let r = self.inner.finish(makespan);
        self.log(t0);
        r
    }
}

/// Host nanoseconds an event sink has spent inside its innermost event
/// buffer, so the timing sink can split a `record` call between the
/// scope fold and the buffer push.
pub trait BufferClock {
    fn buffer_ns(&self) -> u64;
    fn buffer_events(&self) -> u64;
}

impl BufferClock for NullSink {
    fn buffer_ns(&self) -> u64 {
        0
    }
    fn buffer_events(&self) -> u64 {
        0
    }
}

/// Times the innermost event buffer.
pub struct BufferTimer<S> {
    pub inner: S,
    ns: u64,
    events: u64,
}

impl<S: EventSink> BufferTimer<S> {
    pub fn new(inner: S) -> Self {
        BufferTimer { inner, ns: 0, events: 0 }
    }
}

impl<S: EventSink> EventSink for BufferTimer<S> {
    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: Event) {
        let t0 = Instant::now();
        self.inner.record(event);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.events += 1;
    }
}

impl<S> BufferClock for BufferTimer<S> {
    fn buffer_ns(&self) -> u64 {
        self.ns
    }
    fn buffer_events(&self) -> u64 {
        self.events
    }
}

impl<S: EventSink + BufferClock> BufferClock for ScopeAnalyzer<S> {
    fn buffer_ns(&self) -> u64 {
        self.inner().buffer_ns()
    }
    fn buffer_events(&self) -> u64 {
        self.inner().buffer_events()
    }
}

/// Read access to the trace ring behind a sink stack, for rendering.
pub trait RingAccess {
    fn ring(&self) -> &TraceBuffer;
}

impl RingAccess for TraceBuffer {
    fn ring(&self) -> &TraceBuffer {
        self
    }
}

impl<S: RingAccess> RingAccess for BufferTimer<S> {
    fn ring(&self) -> &TraceBuffer {
        self.inner.ring()
    }
}

/// Wraps an event sink: always enabled, so the simulator emits every
/// event; each `record` is timestamped and forwarded only when the
/// wrapped sink is itself enabled (the `CaptureSink` contract, which
/// keeps results bit-identical). With a disabled inner sink one clock
/// read marks the call.
pub struct TimingSink<S> {
    pub inner: S,
    pub calls: Vec<Call>,
}

impl<S: EventSink + BufferClock> TimingSink<S> {
    pub fn new(inner: S) -> Self {
        TimingSink { inner, calls: Vec::new() }
    }
}

impl<S: EventSink + BufferClock> EventSink for TimingSink<S> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        let what = What::Event(Tag::of(&event.kind));
        let t0 = Instant::now();
        if self.inner.enabled() {
            let b0 = self.inner.buffer_ns();
            self.inner.record(event);
            let buffer_ns = self.inner.buffer_ns() - b0;
            let t1 = Instant::now();
            self.calls.push(Call { t0, t1, what, buffer_ns });
        } else {
            self.calls.push(Call { t0, t1: t0, what, buffer_ns: 0 });
        }
    }
}
