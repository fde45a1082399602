//! Observability integration gates: DES-transition trace coverage,
//! cross-process metrics byte-determinism, and the zero-perturbation
//! guarantee (an enabled sink must not change simulation results).

use ignite_cluster::{
    metrics_for, validate_trace, ClusterConfig, ClusterReport, ClusterSim, StaticPolicy,
};
use ignite_obs::{to_chrome_json, ChromeOptions, TraceBuffer};

/// Same pinned configuration as the cluster golden tests: long enough
/// that the store sees hits, misses and evictions, small enough for CI.
fn obs_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

fn traced_run() -> (ClusterConfig, ignite_cluster::ClusterOutcome, TraceBuffer) {
    let cfg = obs_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let mut buf = TraceBuffer::new(1 << 20);
    let outcome = sim.run_source_policy_obs(&mut cfg.arrival.source(), &mut buf, &mut StaticPolicy);
    (cfg, outcome, buf)
}

/// The exported trace passes the validator and contains at least one
/// event for every DES transition type the simulator can take under the
/// pinned configuration (arrival, dispatch, context switch, invocation
/// span, completion) plus store hits/misses/evictions and Ignite
/// record/replay episodes with Top-Down phase attribution.
#[test]
fn cluster_trace_covers_every_des_transition() {
    let (_, outcome, buf) = traced_run();
    let names: Vec<String> = outcome.functions.iter().map(|f| f.abbr.clone()).collect();
    let text = to_chrome_json(
        &buf,
        &ChromeOptions { process_name: "ignite-cluster", function_names: &names },
    );
    let summary = validate_trace(&text).expect("trace must pass the validator");
    assert_eq!(summary.dropped_events, 0, "buffer must hold the whole run");
    for required in [
        "arrival",
        "dispatch",
        "context-switch",
        "complete",
        "store-hit",
        "store-miss",
        "store-evict",
        "record-begin",
        "record-end",
        "replay-begin",
        "replay-end",
    ] {
        assert!(
            summary.events_by_name.get(required).copied().unwrap_or(0) > 0,
            "no '{required}' events in trace; have {:?}",
            summary.events_by_name
        );
    }
    // Invocation spans are named after the function; check by category.
    for category in ["invocation", "topdown"] {
        assert!(
            summary.events_by_category.get(category).copied().unwrap_or(0) > 0,
            "no '{category}' spans in trace; have {:?}",
            summary.events_by_category
        );
    }
    assert_eq!(
        summary.events_by_name.get("arrival").copied().unwrap_or(0),
        outcome.invocations,
        "one arrival event per served invocation"
    );
}

/// Observation is read-only: running with a live sink yields the exact
/// same outcome (and report bytes) as running without one.
#[test]
fn enabled_sink_does_not_perturb_results() {
    let (cfg, observed, _) = traced_run();
    let plain = ClusterSim::new(cfg.clone()).run();
    assert_eq!(plain, observed, "sink must not change the simulation");
    let a = ClusterReport::new(cfg.clone(), plain).to_json();
    let b = ClusterReport::new(cfg, observed).to_json();
    assert_eq!(a, b);
}

/// Cross-process byte-determinism of the metrics exposition: a fresh
/// process (fresh ASLR, allocator state, hash seeds) reproduces the same
/// metrics text. The child re-runs this test binary with
/// `IGNITE_OBS_CHILD=1`, which makes [`obs_child_emits_metrics`] print
/// the pinned-config exposition; two spawns must print identical output.
#[test]
fn metrics_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["obs_child_emits_metrics", "--exact", "--nocapture"])
            .env("IGNITE_OBS_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IGNITE_OBS ")).collect();
        assert!(!lines.is_empty(), "child printed no metrics lines:\n{stdout}");
        lines.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different metrics text");
}

/// Helper for [`metrics_identical_across_processes`]: prints the
/// pinned-config metrics exposition (one tagged line per metrics line)
/// when spawned with `IGNITE_OBS_CHILD=1`, does nothing in a normal run.
#[test]
fn obs_child_emits_metrics() {
    if std::env::var_os("IGNITE_OBS_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    let cfg = obs_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    for line in metrics_for(&cfg, &outcome).expose().lines() {
        println!("IGNITE_OBS {line}");
    }
}

/// The Chrome export itself is byte-deterministic for the same run.
#[test]
fn trace_export_is_deterministic() {
    let (_, _, buf_a) = traced_run();
    let (_, _, buf_b) = traced_run();
    let opts = ChromeOptions { process_name: "ignite-cluster", function_names: &[] };
    assert_eq!(to_chrome_json(&buf_a, &opts), to_chrome_json(&buf_b, &opts));
}
