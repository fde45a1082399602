//! One benchmark run: the correctness gate, repeated set-up, the
//! measured repetitions, and the metrics computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalogue::{of_kind, Kind};
use crate::cluster::{self, ClusterWorkload};
use crate::layers::{tiling, Spans, TILE_TOLERANCE};
use crate::lukewarm::{Lukewarm, CONFIGS, PAPER_FIG8_IGNITE_MEAN};
use crate::stats::{beyond, median, percentile};
use crate::workload::{secs, walk_alone, Check, Rep, SetupTimes, Size, Workload};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["lukewarm", "mmpp-stream", "fleet-observed"];

/// Before each repetition the workload is set up in a burst: at least
/// this many times, then until this much host time has gone, up to a
/// cap. `setup_s` is the median over the run's bursts of each burst's
/// fastest set-up, so the bursts spread over the whole run and a burst
/// the host slowed in part still gives its full-speed sample.
const SETUPS_PER_REP_MIN: usize = 3;
const SETUPS_PER_REP_MAX: usize = 50;
const SETUP_BUDGET_PER_REP_S: f64 = 0.1;
/// The standalone walker repeats until this much host time has gone.
const WALKER_BUDGET_S: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything a run produces.
pub struct RunResult {
    pub checks: Vec<Check>,
    /// Digest of the simulated outputs (equal across every repetition
    /// of a correct run).
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Reported metrics, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed-only metrics.
    pub printed: Vec<(&'static str, f64)>,
    /// Human-readable notes printed beside the metrics.
    pub notes: Vec<String>,
    /// "Where the wall time goes": layer rows of the median traced
    /// repetition, in milliseconds.
    pub table: Vec<(&'static str, f64)>,
    pub traced_wall_ms: f64,
    pub provenance: Vec<(&'static str, String)>,
    pub spans: Option<Spans>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn workload(name: &str, size: Size, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "lukewarm" => Box::new(Lukewarm::new(size, seed)),
        "mmpp-stream" => Box::new(ClusterWorkload::new(cluster::Kind::MmppStream, size, seed)),
        "fleet-observed" => {
            Box::new(ClusterWorkload::new(cluster::Kind::FleetObserved, size, seed))
        }
        _ => return None,
    })
}

/// Runs the benchmark. `golden` is the committed `traffic_mmpp` report.
/// Returns `None` for an unknown workload name.
pub fn run(args: &Args, golden: &str, size: Size) -> Option<RunResult> {
    let mut w = workload(&args.workload, size, args.seed)?;
    let mut checks =
        vec![Check::new("traffic_mmpp golden byte-match", cluster::golden_gate(golden))];

    // Repeat while at least half of another repetition of the mean
    // length so far fits in the budget, so a run lasts about
    // `--seconds`.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut burst_fastest: Vec<f64> = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = Instant::now();
    loop {
        let burst = Instant::now();
        let mut n = 0;
        let mut fastest = f64::INFINITY;
        while n < SETUPS_PER_REP_MIN
            || (n < SETUPS_PER_REP_MAX && secs(burst) < SETUP_BUDGET_PER_REP_S)
        {
            let s = w.setup();
            fastest = fastest.min(s.total_s);
            setups.push(s);
            n += 1;
        }
        burst_fastest.push(fastest);
        // Alternate which side goes first so drift does not bias the
        // trace-overhead ratio.
        if args.trace && plain.len() % 2 == 1 {
            traced.push(w.rep(true));
            plain.push(w.rep(false));
        } else {
            plain.push(w.rep(false));
            if args.trace {
                traced.push(w.rep(true));
            }
        }
        let elapsed = secs(start);
        if elapsed + elapsed / plain.len() as f64 / 2.0 > args.seconds as f64 {
            break;
        }
    }

    let first = &plain[0];
    let digest = first.digest;
    let all = || plain.iter().chain(&traced);
    let same = all().all(|r| r.digest == first.digest);
    checks.push(Check::new(
        format!(
            "simulated outcomes repeat across {} untraced and {} traced reps",
            plain.len(),
            traced.len()
        ),
        if same { Ok(()) } else { Err("outcome digests differ".to_string()) },
    ));
    let mut attempted = 0;
    let mut dropped = 0;
    for r in all() {
        checks.extend(r.checks.iter().cloned());
        attempted += r.invocations;
        dropped += r.dropped;
    }

    let mut metrics = BTreeMap::new();
    let mut notes = Vec::new();
    let mut table = Vec::new();
    let mut traced_wall_ms = 0.0;
    let walls = SegmentWalls::of(&plain);
    checks.push(Check::new(
        "untraced reps are cut into the same segments",
        walls.as_ref().map(|_| ()).map_err(Clone::clone),
    ));
    if !args.trace {
        let walls = walls.unwrap_or_default();
        let wall = walls.min;
        metrics.insert("setup_s", median(&burst_fastest));
        metrics.insert("sim_mips", first.instructions as f64 / wall / 1e6);
        metrics.insert("inv_per_s", first.invocations as f64 / wall);
        metrics.insert("rss_peak_mib", rss_peak_mib());
        metrics.insert("sim_cpi", first.sim["sim_cpi"]);
        let rep_walls: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        notes.push(format!(
            "reps: {} x {:.4} s median [{}]; by segments over {} segments: {:.4} s median, \
             {:.4} s min (reported); setup: {} in {} bursts, {:.4} s median, {:.4} s median \
             of burst minima (reported)",
            plain.len(),
            walls.rep_median,
            rep_walls.join(" "),
            walls.segments,
            walls.median,
            wall,
            setups.len(),
            burst_fastest.len(),
            median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
            metrics["setup_s"],
        ));
    } else {
        let mut tilings = Vec::new();
        for (i, r) in traced.iter().enumerate() {
            let t = tiling(r.spans.as_ref().expect("traced reps keep spans"));
            checks.push(Check::new(
                format!(
                    "traced rep {i}: no overlapping spans and at most {TILE_TOLERANCE} of the \
                     wall unclaimed"
                ),
                if t.ok() {
                    Ok(())
                } else {
                    Err(format!(
                        "error {:.4}, unclaimed {:.4}, overlap {:.4}",
                        t.error_frac, t.unclaimed_frac, t.overlap_frac
                    ))
                },
            ));
            tilings.push(t);
        }
        let row = |name: &str| {
            median(
                &tilings
                    .iter()
                    .map(|t| t.rows.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let last = traced.last().expect("at least one traced rep");
        let mut engine_ms = 0.0;
        let mut engine_kinstr = 0.0;
        for key in CONFIGS {
            let ms = row(&format!("engine.run.{key}"));
            let (cycles, instrs) = last.engine_work.get(key).copied().unwrap_or((0, 0));
            engine_ms += ms;
            engine_kinstr += instrs as f64 / 1e3;
            let per = |n: u64| if n == 0 { 0.0 } else { ms * 1e6 / (n as f64 / 1e3) };
            metrics.insert(per_config("engine.host_ns_per_kcycle", key), per(cycles));
            metrics.insert(per_config("engine.host_ns_per_kinstr", key), per(instrs));
        }
        metrics.insert("engine.run_ms", engine_ms);
        metrics.insert("engine.flush_ms", row("engine.flush"));
        metrics.insert("engine.machine_ms", row("engine.machine"));
        metrics.insert(
            "engine.prepare_ms",
            median(&setups.iter().map(|s| s.prepare_ms).collect::<Vec<_>>()),
        );
        metrics.insert(
            "workloads.suite_build_ms",
            median(&setups.iter().map(|s| s.suite_ms).collect::<Vec<_>>()),
        );
        let walker = walker_ns_per_kinstr(w.as_ref(), &last.walks);
        metrics.insert("workloads.walker_ns_per_kinstr", walker);
        let engine_ns_per_kinstr =
            if engine_kinstr > 0.0 { engine_ms * 1e6 / engine_kinstr } else { 0.0 };
        metrics.insert(
            "workloads.walker_engine_share",
            if engine_ns_per_kinstr > 0.0 { walker / engine_ns_per_kinstr } else { 0.0 },
        );
        for (name, row_name) in [
            ("traffic.next_arrival_ms", "traffic.next_arrival"),
            ("cluster.store_fetch_ms", "cluster.store_fetch"),
            ("cluster.install_ms", "cluster.install"),
            ("cluster.writeback_ms", "cluster.writeback"),
            ("cluster.sched_ms", "cluster.sched"),
            ("cluster.des_self_ms", "cluster.des_self"),
            ("render.report_ms", "render.report"),
            ("render.validate_ms", "render.validate"),
            ("render.prom_ms", "render.prom"),
            ("render.chrome_ms", "render.chrome"),
            ("render.scope_ms", "render.scope"),
            ("obs.record_ms", "obs.record"),
            ("scope.fold_ms", "scope.fold"),
            ("control.hook_ms", "control.hook"),
        ] {
            metrics.insert(name, row(row_name));
        }
        let serve = |f: &dyn Fn(&[f64]) -> f64| {
            median(
                &traced
                    .iter()
                    .map(|r| {
                        let d: Vec<f64> = r
                            .spans
                            .as_ref()
                            .expect("traced")
                            .durations("cluster.serve")
                            .into_iter()
                            .map(|ns| ns as f64 / 1e3)
                            .collect();
                        f(&d)
                    })
                    .collect::<Vec<_>>(),
            )
        };
        metrics.insert("cluster.serve_ms", serve(&|d| d.iter().sum::<f64>() / 1e3));
        metrics.insert("cluster.serve_us_p50", serve(&|d| percentile(d, 50)));
        metrics.insert("cluster.serve_us_p99", serve(&|d| percentile(d, 99)));
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.insert("bench.trace_overhead_frac", wall(&traced) / wall(&plain) - 1.0);
        for (&k, &v) in last.sim.iter().chain(&last.traced) {
            if crate::catalogue::metric(k).is_some_and(|m| m.kind != Kind::EndToEnd) {
                metrics.insert(k, v);
            }
        }
        // The median traced rep's rows, for the table.
        let mut order: Vec<usize> = (0..tilings.len()).collect();
        order.sort_by(|&a, &b| tilings[a].wall_ms.total_cmp(&tilings[b].wall_ms));
        let mid = &tilings[order[order.len() / 2]];
        traced_wall_ms = mid.wall_ms;
        table = mid.rows.iter().map(|(&k, &v)| (k, v)).collect();
        table.sort_by(|a, b| b.1.total_cmp(&a.1));
        notes.push(format!(
            "traced reps: {}; untraced reps: {}; tiling tolerance {TILE_TOLERANCE}",
            traced.len(),
            plain.len()
        ));
    }

    if args.workload == "lukewarm" {
        // One sample per `run_invocation_ctx` call: 120 per repetition,
        // so 12 lie beyond p90.
        let call_ms = |p| median(&all().map(|r| percentile(&r.samples_ms, p)).collect::<Vec<_>>());
        metrics.insert("inv_host_ms_p50", call_ms(50));
        metrics.insert("inv_host_ms_p90", call_ms(90));
        let n = first.samples_ms.len();
        notes.push(format!(
            "inv_host_ms: {n} run_invocation_ctx samples per rep ({} beyond p90), median over {} reps",
            beyond(n, 90),
            plain.len() + traced.len()
        ));
    }
    metrics.insert("sim_p99_latency_kcycles", first.sim["sim_p99_latency_kcycles"]);
    if args.workload == "lukewarm" {
        let s = first.sim["sim_ignite_speedup"];
        metrics.insert("sim_ignite_speedup", s);
        notes.push(format!(
            "sim_ignite_speedup {s:.4} against the paper's fig8 mean of {PAPER_FIG8_IGNITE_MEAN} \
             (error {:+.2}%); absolute CPI is unvalidated (DESIGN.md section 1)",
            (s / PAPER_FIG8_IGNITE_MEAN - 1.0) * 100.0
        ));
    }
    for (&k, v) in metrics.iter_mut() {
        if !v.is_finite() {
            checks.push(Check::new(format!("{k} is finite"), Err(format!("{v}"))));
            *v = 0.0;
        }
        // An empty f64 sum is -0.0; report it as 0.
        *v += 0.0;
    }
    let failed_checks = checks.iter().filter(|c| !c.passed).count() as u64;
    attempted += checks.len() as u64;
    let failed = failed_checks + dropped;
    metrics.insert("ops_failed_frac", failed as f64 / attempted.max(1) as f64);
    let printed =
        of_kind(Kind::Printed).filter_map(|m| metrics.get(m.name).map(|&v| (m.name, v))).collect();

    let kind = if args.trace { Kind::PerLayer } else { Kind::EndToEnd };
    let metrics =
        of_kind(kind).map(|m| (m.name, metrics.get(m.name).copied().unwrap_or(0.0))).collect();
    let mut provenance = w.provenance();
    provenance.push(("reps_untraced", plain.len().to_string()));
    provenance.push(("reps_traced", traced.len().to_string()));
    provenance.push(("setups", setups.len().to_string()));
    let spans = traced.pop().and_then(|r| r.spans);
    Some(RunResult {
        checks,
        digest,
        attempted,
        failed,
        metrics,
        printed,
        notes,
        table,
        traced_wall_ms,
        provenance,
        spans,
    })
}

/// Wall-time estimates of one repetition from the untraced ones.
#[derive(Debug, Clone, Default)]
struct SegmentWalls {
    /// The median repetition wall.
    rep_median: f64,
    /// The median over repetitions of each segment, summed.
    median: f64,
    /// The fastest time of each segment over the repetitions, summed:
    /// the reported wall. A segment is at most one engine call, so a
    /// repetition that the host slowed for a while still lends the
    /// segments it ran at full speed.
    min: f64,
    segments: usize,
}

impl SegmentWalls {
    /// Every repetition of a seed is the same work cut at the same
    /// points; different segment counts mean the repetitions differed.
    fn of(reps: &[Rep]) -> Result<SegmentWalls, String> {
        let n = reps[0].segments_s.len();
        if n == 0 || reps.iter().any(|r| r.segments_s.len() != n) {
            let counts: Vec<usize> = reps.iter().map(|r| r.segments_s.len()).collect();
            return Err(format!("segment counts {counts:?}"));
        }
        let per_segment = |f: fn(&[f64]) -> f64| -> f64 {
            (0..n).map(|k| f(&reps.iter().map(|r| r.segments_s[k]).collect::<Vec<_>>())).sum()
        };
        Ok(SegmentWalls {
            rep_median: median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
            median: per_segment(median),
            min: per_segment(|v| v.iter().copied().fold(f64::INFINITY, f64::min)),
            segments: n,
        })
    }
}

fn per_config(prefix: &str, key: &str) -> &'static str {
    let name = format!("{prefix}.{key}");
    crate::catalogue::metric(&name).expect("per-config metric is catalogued").name
}

/// Standalone trace-walker cost, repeated for a stable figure.
fn walker_ns_per_kinstr(w: &dyn Workload, walks: &[crate::workload::Walk]) -> f64 {
    if walks.is_empty() {
        return 0.0;
    }
    let images = w.images();
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || secs(start) < WALKER_BUDGET_S {
        let (ns, instrs) = walk_alone(&images, walks);
        rates.push(ns / (instrs as f64 / 1e3));
    }
    median(&rates)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
