//! The two cluster workloads, driven through `ClusterSim::run_source*`.
//!
//! * `mmpp-stream`: the committed `traffic_mmpp` golden configuration
//!   (4 cores, fifo, an 8 KiB LRU store, Ignite, scale 0.02,
//!   `mmpp:mults=1/6,dwells=300000/60000`) over a 10 M-cycle horizon,
//!   run through `run_source` with the null sink and the static policy.
//! * `fleet-observed`: what `cluster --nodes 2 --cores 2 --scheduler
//!   least-loaded --keepalive hybrid --controller default --trace-out
//!   --scope-out --metrics-out --out` does over a 20 M-cycle horizon,
//!   called from the library: Poisson/Zipf arrivals, events into a
//!   `ScopeAnalyzer<TraceBuffer>`, the default online controller, and
//!   every artifact rendered and validated after the run (the files are
//!   not written).
//!
//! The seed is the arrival seed. Arrivals are an open loop in modelled
//! time: the schedule does not depend on service.

use std::time::Instant;

use ignite_cluster::{
    metrics_for, record_trace_health, validate_trace, ClusterConfig, ClusterOutcome, ClusterReport,
    ClusterSim, KeepAliveKind, ObsSummary, SchedulerKind, StaticPolicy,
};
use ignite_control::{Controller, ControllerSpec};
use ignite_obs::{to_chrome_json, ChromeOptions, EventSink, NullSink, TraceBuffer};
use ignite_scope::{record_scope_metrics, record_slo_metrics, ScopeAnalyzer, ScopeReport};
use ignite_traffic::TrafficSpec;
use ignite_workloads::arrival::ArrivalSource;
use ignite_workloads::{CodeImage, Suite};

use crate::layers::{cluster_spans, Spans, BENCH_LOOP};
use crate::probe::{
    BufferClock, BufferTimer, Call, RingAccess, SegmentSource, TimingPolicy, TimingSink,
    TimingSource,
};
use crate::stats::{digest_debug, fnv};
use crate::workload::{ms_between, secs, Check, Rep, SetupTimes, Size, Walk, Workload};

/// The `traffic_mmpp` golden's traffic spec.
pub const MMPP_SPEC: &str = "mmpp:mults=1/6,dwells=300000/60000";
/// Event capacity of the trace ring, as the `cluster` binary sizes it.
const TRACE_BUFFER_EVENTS: usize = 1 << 18;
/// Invocations per function the standalone walker replays.
const WALKS_PER_FUNCTION: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MmppStream,
    FleetObserved,
}

/// The golden configuration of `tests/golden/traffic_mmpp.json`.
fn golden_mmpp_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg.traffic = Some(MMPP_SPEC.to_string());
    cfg
}

/// The configuration a workload runs, for a seed.
fn config(kind: Kind, size: Size, seed: u64) -> ClusterConfig {
    let mut cfg = match kind {
        Kind::MmppStream => golden_mmpp_config(),
        Kind::FleetObserved => {
            let mut cfg = ClusterConfig::default();
            cfg.topology.nodes = 2;
            cfg.cores = 2;
            cfg.topology.scheduler =
                SchedulerKind::parse("least-loaded").expect("least-loaded is a scheduler");
            cfg.topology.keepalive =
                KeepAliveKind::parse("hybrid").expect("hybrid is a keep-alive policy");
            cfg.controller = Some("default".to_string());
            cfg
        }
    };
    cfg.arrival.seed = seed;
    cfg.arrival.horizon_cycles = match (kind, size) {
        (Kind::MmppStream, Size::Full) => 10_000_000,
        (Kind::FleetObserved, Size::Full) => 20_000_000,
        (Kind::MmppStream, Size::Tiny) => 800_000,
        (Kind::FleetObserved, Size::Tiny) => 2_000_000,
    };
    cfg
}

/// Builds the arrival source `cluster` builds for a configuration.
fn source(cfg: &ClusterConfig, suite: &Suite) -> Box<dyn ArrivalSource> {
    match &cfg.traffic {
        Some(spec) => TrafficSpec::parse(spec)
            .expect("the workload's traffic spec parses")
            .build(&cfg.arrival, suite)
            .expect("a synthetic traffic spec builds"),
        None => Box::new(cfg.arrival.source()),
    }
}

/// The per-repetition parts: consumed by one run.
struct Fresh {
    source: Box<dyn ArrivalSource>,
    controller: Option<Controller>,
}

pub struct ClusterWorkload {
    cfg: ClusterConfig,
    sim: Option<ClusterSim>,
    suite: Option<Suite>,
    fresh: Option<Fresh>,
    /// The arrival-stream fingerprint of the latest repetition.
    fingerprint: String,
}

impl ClusterWorkload {
    pub fn new(kind: Kind, size: Size, seed: u64) -> ClusterWorkload {
        let cfg = config(kind, size, seed);
        cfg.validate().expect("the workload configuration is valid");
        ClusterWorkload { cfg, sim: None, suite: None, fresh: None, fingerprint: String::new() }
    }

    fn fresh(&self) -> Fresh {
        let suite = self.suite.as_ref().expect("set up");
        let controller = self.cfg.controller.as_ref().map(|spec| {
            Controller::new(ControllerSpec::parse(spec).expect("the controller spec parses"))
        });
        Fresh { source: source(&self.cfg, suite), controller }
    }

    /// The run and its artifacts, untraced: the end-to-end sample.
    fn run_plain(&self, fresh: Fresh) -> (Rep, ClusterOutcome) {
        let sim = self.sim.as_ref().expect("set up");
        let mut source = SegmentSource::new(fresh.source);
        let start = Instant::now();
        let (outcome, rendered, run_end) = match fresh.controller {
            None => {
                let outcome = sim.run_source(&mut source);
                (outcome, None, Instant::now())
            }
            Some(mut ctrl) => {
                let mut sink = ScopeAnalyzer::new(TraceBuffer::new(TRACE_BUFFER_EVENTS));
                let outcome = sim.run_source_policy_obs(&mut source, &mut sink, &mut ctrl);
                let run_end = Instant::now();
                let rendered = render(&self.cfg, &outcome, &sink);
                (outcome, Some(rendered), run_end)
            }
        };
        let end = Instant::now();
        let mut rep = Rep::new(end.duration_since(start).as_secs_f64());
        let bounds: Vec<Instant> =
            [start].into_iter().chain(source.stamps).chain([run_end, end]).collect();
        rep.segments_s =
            bounds.windows(2).map(|w| w[1].duration_since(w[0]).as_secs_f64()).collect();
        self.finish(&mut rep, &outcome, rendered);
        (rep, outcome)
    }

    /// The same run with every seam wrapped in a timing adapter.
    fn run_traced(&self, fresh: Fresh) -> (Rep, ClusterOutcome) {
        let sim = self.sim.as_ref().expect("set up");
        let mut source = TimingSource::new(fresh.source);
        let start = Instant::now();
        let (outcome, rendered, run_end, sink_calls, policy_calls, buffer_events) = match fresh
            .controller
        {
            None => {
                let mut sink = TimingSink::new(NullSink);
                let mut policy = TimingPolicy::new(StaticPolicy);
                let outcome = sim.run_source_policy_obs(&mut source, &mut sink, &mut policy);
                let run_end = Instant::now();
                (outcome, None, run_end, sink.calls, policy.calls.into_inner(), 0)
            }
            Some(ctrl) => {
                let analyzer =
                    ScopeAnalyzer::new(BufferTimer::new(TraceBuffer::new(TRACE_BUFFER_EVENTS)));
                let mut sink = TimingSink::new(analyzer);
                let mut policy = TimingPolicy::new(ctrl);
                let outcome = sim.run_source_policy_obs(&mut source, &mut sink, &mut policy);
                let run_end = Instant::now();
                let rendered = render(&self.cfg, &outcome, &sink.inner);
                let events = sink.inner.buffer_events();
                (outcome, Some(rendered), run_end, sink.calls, policy.calls.into_inner(), events)
            }
        };
        let end = Instant::now();

        let mut spans = Spans::new(start);
        let hook_calls = policy_calls.len();
        let source_calls = source.calls.len();
        let mut calls: Vec<Call> = source.calls;
        calls.extend(sink_calls);
        calls.extend(policy_calls);
        cluster_spans(&mut spans, calls, start, run_end, "engine.run.ignite");
        if let Some(r) = &rendered {
            let mut prev = run_end;
            for &(name, t) in &r.marks {
                spans.push(name, prev, t, 0, None);
                prev = t;
            }
            if end > prev {
                spans.push(BENCH_LOOP, prev, end, 0, None);
            }
        } else if end > run_end {
            spans.push(BENCH_LOOP, run_end, end, 0, None);
        }
        spans.close(end);

        let mut rep = Rep::new(end.duration_since(start).as_secs_f64());
        rep.traced.insert("traffic.next_arrival_calls", source_calls as f64);
        rep.traced.insert("control.hook_calls", hook_calls as f64);
        rep.traced.insert("obs.events", buffer_events as f64);
        self.finish(&mut rep, &outcome, rendered);
        rep.spans = Some(spans);
        (rep, outcome)
    }

    /// Correctness checks, digest and simulated metrics of a finished run.
    fn finish(&self, rep: &mut Rep, out: &ClusterOutcome, rendered: Option<Rendered>) {
        let mut digest = digest_debug(out).to_le_bytes().to_vec();
        match rendered {
            Some(r) => {
                rep.checks.extend(r.checks);
                digest.extend(fnv(r.text.as_bytes()).to_le_bytes());
            }
            None => {
                // Not part of the measured work on this workload: the
                // report is rendered and validated after timing.
                let text = ClusterReport::new(self.cfg.clone(), out.clone()).to_json();
                rep.checks
                    .push(Check::new("cluster report validates", ClusterReport::validate(&text)));
            }
        }
        rep.digest = fnv(&digest);
        let submitted = out.workload.arrivals;
        rep.checks.push(Check::new(
            "every arrival completed",
            if submitted == out.invocations {
                Ok(())
            } else {
                Err(format!("{submitted} arrivals, {} completed", out.invocations))
            },
        ));
        rep.invocations = submitted;
        rep.dropped = submitted.saturating_sub(out.invocations);

        let total = out.total_result();
        rep.instructions = total.instructions;
        rep.engine_work.insert("ignite", (total.cycles, total.instructions));
        let sim = &mut rep.sim;
        sim.insert("sim_cpi", total.cpi());
        sim.insert("sim_p99_latency_kcycles", out.p99_latency as f64 / 1e3);
        sim.insert("uarch.l1i_mpki.ignite", total.l1i_mpki());
        sim.insert("uarch.btb_mpki.ignite", total.btb_mpki());
        sim.insert("uarch.cbp_mpki.ignite", total.cbp_mpki());
        sim.insert("core.replay.entries_restored", total.replay.entries_restored as f64);
        sim.insert("core.replay.l2_prefetches", total.replay.l2_prefetches as f64);
        sim.insert("core.record.metadata_bytes", total.traffic.record_metadata_bytes as f64);
        sim.insert("cluster.store.hits", out.store.hits as f64);
        sim.insert("cluster.store.misses", out.store.misses as f64);
        sim.insert("cluster.store.evictions", out.store.evictions as f64);
        sim.insert("cluster.store.rejects", out.store.rejected as f64);
        sim.insert("cluster.store.hit_rate", out.store.hit_rate());
        sim.insert("cluster.store.peak_footprint_bytes", out.peak_footprint_bytes as f64);
        let queued: f64 = out.functions.iter().map(|f| f.mean_queue * f.invocations as f64).sum();
        sim.insert("cluster.queue_mean_kcycles", queued / out.invocations.max(1) as f64 / 1e3);
        sim.insert("cluster.util_mean", out.mean_utilization());
        sim.insert("cluster.keepalive_wasted_mcycles", out.wasted_keepalive_cycles() as f64 / 1e6);
        sim.insert("cluster.invocations", out.invocations as f64);
        sim.insert("cluster.makespan_mcycles", out.makespan as f64 / 1e6);
        sim.insert(
            "control.decisions",
            out.controller.as_ref().map_or(0, |c| c.decisions.len()) as f64,
        );

        rep.walks = out
            .functions
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                let instrs =
                    self.suite.as_ref().expect("set up").functions()[fi].profile.invocation_instrs;
                (0..f.invocations.min(WALKS_PER_FUNCTION)).map(move |invocation| Walk {
                    function: fi,
                    invocation,
                    instrs,
                    noise: ignite_workloads::trace::DEFAULT_NOISE,
                })
            })
            .collect();
    }
}

/// Everything `cluster` renders after a `fleet-observed` run, with the
/// host instant each step ended at.
struct Rendered {
    /// All artifacts concatenated, for the digest.
    text: String,
    checks: Vec<Check>,
    marks: Vec<(&'static str, Instant)>,
}

/// Renders and validates the scope report, the Chrome trace, the
/// Prometheus exposition and the cluster report, in the order the
/// `cluster` binary does.
fn render<S: EventSink + RingAccess>(
    cfg: &ClusterConfig,
    outcome: &ClusterOutcome,
    analyzer: &ScopeAnalyzer<S>,
) -> Rendered {
    let mut marks = Vec::with_capacity(8);
    let mut checks = Vec::with_capacity(3);
    let abbrs: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    let scope = ScopeReport::from_analyzer(analyzer, &abbrs);
    let scope_text = scope.to_json();
    marks.push(("render.scope", Instant::now()));
    checks.push(Check::new("scope report validates", ScopeReport::validate(&scope_text)));
    marks.push(("render.validate", Instant::now()));
    let ring = analyzer.inner().ring();
    let opts = ChromeOptions { process_name: "ignite-cluster", function_names: &abbrs };
    let chrome = to_chrome_json(ring, &opts);
    marks.push(("render.chrome", Instant::now()));
    checks.push(Check::new("chrome trace validates", validate_trace(&chrome).map(|_| ())));
    marks.push(("render.validate", Instant::now()));
    let mut reg = metrics_for(cfg, outcome);
    record_trace_health(&mut reg, ring.len() as u64, ring.dropped());
    record_scope_metrics(&mut reg, &scope);
    record_slo_metrics(&mut reg, analyzer, &abbrs);
    let prom = reg.expose();
    marks.push(("render.prom", Instant::now()));
    let obs = ObsSummary { trace_events: ring.len() as u64, trace_dropped: ring.dropped() };
    let report = ClusterReport::new(cfg.clone(), outcome.clone()).with_obs(obs).to_json();
    marks.push(("render.report", Instant::now()));
    checks.push(Check::new("cluster report validates", ClusterReport::validate(&report)));
    marks.push(("render.validate", Instant::now()));
    Rendered { text: [scope_text, chrome, prom, report].concat(), checks, marks }
}

impl Workload for ClusterWorkload {
    fn setup(&mut self) -> SetupTimes {
        self.sim = None;
        self.fresh = None;
        // The suite and prepared functions `ClusterSim::new` builds
        // internally, timed alone for the per-layer rows; the suite
        // also feeds the arrival source and the standalone walker.
        let t0 = Instant::now();
        let suite = Suite::paper_suite_scaled(self.cfg.scale);
        let t1 = Instant::now();
        let prepared: Vec<_> = suite
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| ignite_engine::PreparedFunction::from_suite(f, i as u64))
            .collect();
        let t2 = Instant::now();
        drop(std::hint::black_box(prepared));
        self.suite = Some(suite);
        let start = Instant::now();
        self.sim = Some(ClusterSim::new(self.cfg.clone()));
        self.fresh = Some(self.fresh());
        SetupTimes {
            total_s: secs(start),
            suite_ms: ms_between(t0, t1),
            prepare_ms: ms_between(t1, t2),
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let fresh = self.fresh.take().unwrap_or_else(|| self.fresh());
        let (rep, outcome) = if traced { self.run_traced(fresh) } else { self.run_plain(fresh) };
        self.fingerprint = fingerprint_line(&outcome);
        rep
    }

    fn images(&self) -> Vec<&CodeImage> {
        self.suite.as_ref().expect("set up").functions().iter().map(|f| &f.image).collect()
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        let fp = fnv(format!("{:?}", self.cfg).as_bytes());
        vec![
            ("config_fingerprint", format!("{fp:016x}")),
            ("workload_fingerprint", self.fingerprint.clone()),
        ]
    }
}

/// Renders the run's `WorkloadFingerprint` on one line.
fn fingerprint_line(out: &ClusterOutcome) -> String {
    let w = &out.workload;
    format!(
        "arrivals={} functions={} horizon_cycles={} rate_per_mcycle={} interarrival_cv2={} zipf_s_hat={} top1_share={} top5_share={}",
        w.arrivals,
        w.functions,
        w.horizon_cycles,
        w.rate_per_mcycle,
        w.interarrival_cv2,
        w.zipf_s_hat,
        w.top1_share,
        w.top5_share
    )
}

/// Runs the golden `traffic_mmpp` configuration and compares its report
/// byte for byte with the committed golden text.
pub fn golden_gate(golden: &str) -> Result<(), String> {
    let cfg = golden_mmpp_config();
    let suite = Suite::paper_suite_scaled(cfg.scale);
    let mut src = source(&cfg, &suite);
    let outcome = ClusterSim::new(cfg.clone()).run_source(&mut *src);
    let text = ClusterReport::new(cfg, outcome).to_json();
    ClusterReport::validate(&text)?;
    if text == golden {
        return Ok(());
    }
    let line = text.lines().zip(golden.lines()).position(|(a, b)| a != b);
    Err(match line {
        Some(i) => format!("report differs from the golden at line {}", i + 1),
        None => format!("report is {} bytes, golden {} bytes", text.len(), golden.len()),
    })
}
