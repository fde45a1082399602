//! Cluster-layer integration gates: golden report fingerprint, cross-
//! process determinism, capacity-sweep monotonicity and exactness, and
//! trace replay equivalence.
//!
//! The golden snapshot is the full `ignite-cluster-v1` JSON report of a
//! fixed small configuration, byte-compared against
//! `tests/golden/cluster.json`. To update after an intentional semantic
//! change:
//!
//! ```text
//! IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster
//! ```

use std::path::PathBuf;

use ignite_chaos::ChaosPlan;
use ignite_cluster::{
    sweep_capacities, ClusterConfig, ClusterReport, ClusterSim, KeepAliveKind, SchedulerKind,
    Topology,
};
use ignite_workloads::arrival::TraceSource;

/// The pinned golden configuration: 4 cores, the full 20-function suite,
/// Zipf(1.0) Poisson arrivals, a bounded LRU store. Small enough for CI,
/// long enough that recurrences hit the store and eviction engages.
fn golden_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 800_000;
    cfg.store.capacity_bytes = 8 * 1024;
    cfg
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cluster.json")
}

fn golden_report() -> String {
    let cfg = golden_cfg();
    let outcome = ClusterSim::new(cfg.clone()).run();
    ClusterReport::new(cfg, outcome).to_json()
}

#[test]
fn golden_cluster_report_matches() {
    let current = golden_report();
    ClusterReport::validate(&current).expect("golden report must self-validate");
    let path = golden_path();
    if std::env::var_os("IGNITE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster",
            path.display()
        )
    });
    if committed != current {
        for (i, (a, b)) in committed.lines().zip(current.lines()).enumerate() {
            if a != b {
                panic!(
                    "cluster golden mismatch at line {}:\n  committed: {a}\n  \
                     regenerated: {b}\nCluster semantics changed. If intentional, re-bless \
                     with IGNITE_BLESS=1 cargo test -p ignite-harness --test cluster",
                    i + 1
                );
            }
        }
        panic!(
            "cluster golden length mismatch ({} vs {} bytes); re-bless if intentional",
            committed.len(),
            current.len()
        );
    }
}

/// Cross-process determinism: a fresh process (fresh ASLR, allocator
/// state, hash seeds) reproduces the same report bytes. The child re-runs
/// this test binary with `IGNITE_CLUSTER_CHILD=1`, which makes
/// [`cluster_child_emits_report`] print the golden-config report; two
/// spawns must print identical output.
#[test]
fn cluster_report_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args(["cluster_child_emits_report", "--exact", "--nocapture"])
            .env("IGNITE_CLUSTER_CHILD", "1")
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 child output");
        let report: Vec<&str> =
            stdout.lines().filter(|l| l.starts_with("IGNITE_CLUSTER ")).collect();
        assert!(!report.is_empty(), "child printed no report lines:\n{stdout}");
        report.join("\n")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "two process runs produced different cluster reports");
}

/// Helper for [`cluster_report_identical_across_processes`]: prints the
/// golden-config report (one tagged line per JSON line) when spawned with
/// `IGNITE_CLUSTER_CHILD=1`, does nothing in a normal test run.
#[test]
fn cluster_child_emits_report() {
    if std::env::var_os("IGNITE_CLUSTER_CHILD").is_none_or(|v| v != "1") {
        return;
    }
    for line in golden_report().lines() {
        println!("IGNITE_CLUSTER {line}");
    }
}

/// Shrinking the metadata store can only hurt: hit rate falls
/// monotonically and lukewarm latency rises, because evicted metadata
/// turns restored front-end state back into cold misses.
#[test]
fn capacity_sweep_degrades_gracefully() {
    let mut cfg = ClusterConfig::default();
    cfg.arrival.horizon_cycles = 1_000_000;
    let capacities = [2 * 1024, 16 * 1024, 256 * 1024];
    let outcomes: Vec<_> = sweep_capacities(&cfg, &capacities, 3)
        .into_iter()
        .map(|r| r.expect("sweep point must not panic"))
        .collect();
    for pair in outcomes.windows(2) {
        assert!(
            pair[0].store.hit_rate() <= pair[1].store.hit_rate() + 1e-12,
            "hit rate must not fall as capacity grows: {} -> {}",
            pair[0].store.hit_rate(),
            pair[1].store.hit_rate()
        );
        assert!(
            pair[0].peak_footprint_bytes <= pair[1].peak_footprint_bytes,
            "peak footprint must not fall as capacity grows"
        );
    }
    let tight = &outcomes[0];
    let roomy = &outcomes[outcomes.len() - 1];
    assert!(
        tight.store.hit_rate() < roomy.store.hit_rate(),
        "the sweep must actually exercise eviction ({} vs {})",
        tight.store.hit_rate(),
        roomy.store.hit_rate()
    );
    assert!(
        tight.mean_latency > roomy.mean_latency,
        "losing metadata must cost latency: tight {} <= roomy {}",
        tight.mean_latency,
        roomy.mean_latency
    );
}

/// The sweep's short-circuit (capacities at or above the largest
/// capacity's peak footprint reuse its outcome) is exact: every point
/// equals an independent run at that capacity. The list is unordered,
/// repeats a capacity, and straddles the reused peak.
fn assert_sweep_matches_independent_runs(cfg: &ClusterConfig) {
    let at = |capacity: usize| {
        let mut point = cfg.clone();
        point.store.capacity_bytes = capacity;
        ClusterSim::new(point).run()
    };
    let roomy = 1 << 20;
    let top = at(roomy);
    assert_eq!(top.store.evictions + top.store.rejected, 0, "the roomy point must never evict");
    let peak = top.nodes.iter().map(|n| n.peak_footprint_bytes).max().expect("one node");
    assert!(peak > 2 * 1024, "the run must record enough metadata to straddle ({peak})");
    let capacities = [peak, 2 * 1024, roomy, peak - 1, peak + 1, peak];
    let swept = sweep_capacities(cfg, &capacities, 2);
    assert_eq!(swept.len(), capacities.len());
    for (&capacity, got) in capacities.iter().zip(swept) {
        let got = got.expect("sweep point must not panic");
        assert_eq!(got, at(capacity), "capacity {capacity} diverged from an independent run");
    }
    assert!(sweep_capacities(cfg, &[], 2).is_empty());
}

#[test]
fn sweep_matches_independent_runs_on_the_default_config() {
    assert_sweep_matches_independent_runs(&golden_cfg());
}

#[test]
fn sweep_matches_independent_runs_on_two_nodes_with_hybrid_keepalive() {
    let mut cfg = golden_cfg();
    cfg.topology = Topology {
        nodes: 2,
        scheduler: SchedulerKind::LeastLoaded,
        keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
    };
    assert_sweep_matches_independent_runs(&cfg);
}

#[test]
fn sweep_matches_independent_runs_under_default_chaos() {
    let mut cfg = golden_cfg();
    cfg.chaos = Some(ChaosPlan::default_preset().seeded(7));
    assert_sweep_matches_independent_runs(&cfg);
}

/// A panicking point reports its own index in the caller's list, the
/// largest (first-run) capacity included.
#[test]
fn sweep_failures_carry_the_callers_point_index() {
    let cfg = ClusterConfig { cores: 0, ..golden_cfg() };
    let swept = sweep_capacities(&cfg, &[4096, 1 << 20, 2048], 2);
    for (i, r) in swept.into_iter().enumerate() {
        assert_eq!(r.expect_err("zero cores must panic").index, i);
    }
}

/// Spawns the cluster binary on a capacity sweep and returns stdout.
fn sweep_stdout(jobs: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .args(["--horizon", "600000", "--sweep", "2048,8192,65536", "--jobs", jobs])
        .output()
        .expect("spawn cluster binary");
    assert!(
        out.status.success(),
        "cluster --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 sweep output")
}

/// A trace file whose header declares more functions than the suite
/// has is a user error: the CLI names it and exits 1 instead of
/// tripping the simulator's assertion with a panic.
#[test]
fn cli_rejects_a_trace_wider_than_the_suite() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wide.trace");
    std::fs::write(&path, "ignite-trace-v1 25\n0 24\n").expect("write trace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster"))
        .arg("--trace")
        .arg(&path)
        .output()
        .expect("spawn cluster binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("trace declares 25 functions, suite has 20"), "stderr: {stderr}");
}

/// Cross-process `--jobs` pinning: the panic-isolated fanout must merge
/// sweep points in index order, so a 4-worker sweep prints the same
/// bytes as a serial one.
#[test]
fn sweep_output_is_byte_identical_across_job_counts() {
    assert_eq!(
        sweep_stdout("1"),
        sweep_stdout("4"),
        "--jobs 4 sweep output diverged from --jobs 1"
    );
}

/// The trace text format is a faithful transport: emitting the generated
/// trace, parsing it back, and serving it reproduces the direct run
/// byte-for-byte (the cluster binary's `--emit-trace`/`--trace` path).
/// It also proves `run()`, which streams the arrival process instead of
/// materializing it, exact against the materialized trace.
#[test]
fn replayed_trace_reproduces_direct_run() {
    let cfg = golden_cfg();
    let sim = ClusterSim::new(cfg.clone());
    let direct = sim.run();
    let mut arrival = cfg.arrival;
    arrival.functions = direct.functions.len();
    let trace = arrival.generate();
    let text = trace.to_text();
    let parsed = ignite_workloads::arrival::Trace::parse(&text).expect("round-trip parse");
    let replayed = ClusterSim::new(cfg.clone()).run_source(&mut TraceSource::new(&parsed));
    let a = ClusterReport::new(cfg.clone(), direct).to_json();
    let b = ClusterReport::new(cfg, replayed).to_json();
    assert_eq!(a, b, "trace replay must reproduce the direct run");
}

/// Tampered reports fail validation (the schema gate the CI smoke job
/// relies on).
#[test]
fn validation_rejects_tampered_reports() {
    let good = golden_report();
    ClusterReport::validate(&good).expect("pristine report validates");
    let wrong_schema = good.replace("ignite-cluster-v1", "ignite-cluster-v0");
    assert!(ClusterReport::validate(&wrong_schema).is_err(), "schema tag must be checked");
    let missing = good.replace("\"makespan_cycles\"", "\"makespan_cyc\"");
    assert!(ClusterReport::validate(&missing).is_err(), "missing fields must be caught");
    assert!(ClusterReport::validate("{}").is_err(), "empty object must be rejected");
}
