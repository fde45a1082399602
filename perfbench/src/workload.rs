//! What every workload provides, and the pieces they share.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ignite_workloads::{CodeImage, TraceWalker};

use crate::layers::Spans;

/// How large a workload runs. The benchmark always runs `Full`; the
/// package's own tests use `Tiny` to check structure quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Size {
    Full,
    Tiny,
}

/// Host time of the steps of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up, in seconds: the `setup_s` sample.
    pub total_s: f64,
    /// `Suite::paper_suite_scaled` at the workload's scale.
    pub suite_ms: f64,
    /// `PreparedFunction::from_suite` over the suite.
    pub prepare_ms: f64,
}

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, result: Result<(), String>) -> Check {
        let (passed, detail) = match result {
            Ok(()) => (true, String::new()),
            Err(e) => (false, e),
        };
        Check { name: name.into(), passed, detail }
    }
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// The measured phase cut into segments that are the same work in
    /// every repetition of a seed (host seconds each).
    pub segments_s: Vec<f64>,
    /// Digest of every simulated output of the repetition.
    pub digest: u64,
    /// Correctness checks made on this repetition's outputs.
    pub checks: Vec<Check>,
    /// Simulated invocations attempted, and how many were dropped.
    pub invocations: u64,
    pub dropped: u64,
    /// Host milliseconds per engine call (`lukewarm`).
    pub samples_ms: Vec<f64>,
    /// Simulated instructions retired in the repetition.
    pub instructions: u64,
    /// Simulated (deterministic) metrics: `sim_*` and the per-layer
    /// exact counts.
    pub sim: BTreeMap<&'static str, f64>,
    /// Engine work per front-end config: (cycles, instructions).
    pub engine_work: BTreeMap<&'static str, (u64, u64)>,
    /// Inputs of every engine call, for the standalone walker.
    pub walks: Vec<Walk>,
    /// The span tree, on traced repetitions only.
    pub spans: Option<Spans>,
    /// Per-layer values measured directly on traced repetitions
    /// (call counts, event counts).
    pub traced: BTreeMap<&'static str, f64>,
}

impl Rep {
    pub fn new(wall_s: f64) -> Rep {
        Rep {
            wall_s,
            segments_s: Vec::new(),
            digest: 0,
            checks: Vec::new(),
            invocations: 0,
            dropped: 0,
            samples_ms: Vec::new(),
            instructions: 0,
            sim: BTreeMap::new(),
            engine_work: BTreeMap::new(),
            walks: Vec::new(),
            spans: None,
            traced: BTreeMap::new(),
        }
    }
}

/// One trace-walker input: which function, invocation and budget.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    pub function: usize,
    pub invocation: u64,
    pub instrs: u64,
    pub noise: f64,
}

/// A benchmark workload: set up once per sample, then repeat.
pub trait Workload {
    /// Builds everything a repetition needs, replacing any earlier
    /// state, and returns the time each step took.
    fn setup(&mut self) -> SetupTimes;
    /// Runs one repetition; `traced` wraps the seams and keeps spans.
    fn rep(&mut self, traced: bool) -> Rep;
    /// The code images the walker inputs index into.
    fn images(&self) -> Vec<&CodeImage>;
    /// Provenance entries: config and workload fingerprints (of the
    /// latest repetition).
    fn provenance(&self) -> Vec<(&'static str, String)>;
}

/// Runs the trace walker alone over `walks` and returns the host
/// nanoseconds and the instructions it produced.
pub fn walk_alone(images: &[&CodeImage], walks: &[Walk]) -> (f64, u64) {
    let start = Instant::now();
    let mut instrs = 0u64;
    for w in walks {
        let walker = TraceWalker::with_noise(images[w.function], w.invocation, w.instrs, w.noise);
        for block in walker {
            instrs += u64::from(black_box(block).instrs);
        }
    }
    (start.elapsed().as_nanos() as f64, black_box(instrs))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds between two instants.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}
