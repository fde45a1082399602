//! The benchmark's own checks: the catalogue agrees with
//! `BENCHMARK.json` and `METRICS.md`, every workload reports every
//! metric with its unit, a held-out seed gives a valid and different
//! outcome, and `lukewarm` takes exactly 120 engine samples. The
//! workloads run at `Size::Tiny` here; run with `--release` for speed.

use std::path::PathBuf;

use crate::catalogue::{of_kind, Kind, METRICS};
use crate::lukewarm::Lukewarm;
use crate::run::{run, Args, RunResult, WORKLOADS};
use crate::workload::{Size, Workload};

fn repo(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn tiny(workload: &str, seed: u64, trace: bool) -> RunResult {
    let args = Args { workload: workload.to_string(), seed, seconds: 1, trace };
    run(&args, &read("tests/golden/traffic_mmpp.json"), Size::Tiny).expect("known workload")
}

/// The workloads `BENCHMARK.json` runs. `lukewarm` stays runnable by
/// hand; `METRICS.md` says why it is not gated.
const GATED: [&str; 2] = ["mmpp-stream", "fleet-observed"];

fn value(r: &RunResult, name: &str) -> f64 {
    let mut all = r.metrics.iter().chain(&r.printed);
    all.find(|(k, _)| *k == name).unwrap_or_else(|| panic!("{name} missing")).1
}

#[test]
fn catalogue_matches_benchmark_json_and_metrics_md() {
    let bench = read("BENCHMARK.json");
    let doc = read("perfbench/METRICS.md");
    for m in METRICS {
        assert!(doc.contains(&format!("`{}`", m.name)), "METRICS.md does not describe {}", m.name);
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        match m.kind {
            Kind::Printed => assert!(!bench.contains(&entry), "{} is printed only", m.name),
            _ => assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}"),
        }
    }
    for w in WORKLOADS {
        let listed = bench.contains(&format!("{{\"name\": \"{w}\", \"why\": "));
        assert_eq!(listed, GATED.contains(&w), "workload {w} in BENCHMARK.json");
        assert!(doc.contains(&format!("`{w}`")), "METRICS.md does not describe {w}");
    }
    let listed = bench.matches("{\"name\": ").count();
    let reported = of_kind(Kind::EndToEnd).count() + of_kind(Kind::PerLayer).count();
    assert_eq!(listed, reported + GATED.len(), "BENCHMARK.json lists metrics the benchmark lacks");
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = tiny(w, 1, trace);
            let failed: Vec<_> = r.checks.iter().filter(|c| !c.passed).collect();
            assert!(r.correct(), "{w} trace={trace}: {failed:?}");
            let kind = if trace { Kind::PerLayer } else { Kind::EndToEnd };
            let names: Vec<&str> = r.metrics.iter().map(|(k, _)| *k).collect();
            let want: Vec<&str> = of_kind(kind).map(|m| m.name).collect();
            assert_eq!(names, want, "{w} trace={trace}");
            for (k, v) in &r.metrics {
                assert!(v.is_finite(), "{w}: {k} = {v}");
                if !trace {
                    assert!(*v > 0.0, "{w}: end-to-end metric {k} reads {v}");
                }
            }
            if trace {
                let quiet = ["obs.record_ms", "obs.events", "scope.fold_ms", "control.hook_ms"];
                for k in quiet.iter().chain(&["control.hook_calls", "render.report_ms"]) {
                    let v = value(&r, k);
                    assert_eq!(v == 0.0, w != "fleet-observed", "{w}: {k} = {v}");
                }
                let flush = value(&r, "engine.flush_ms");
                assert_eq!(flush > 0.0, w == "lukewarm", "{w}: engine.flush_ms = {flush}");
            }
        }
    }
}

#[test]
fn held_out_seed_gives_a_valid_different_outcome() {
    for w in WORKLOADS {
        let a = tiny(w, 1, false);
        let b = tiny(w, 2, false);
        assert!(a.correct() && b.correct(), "{w}");
        assert_ne!(a.digest, b.digest, "{w}: seeds 1 and 2 simulated the same outcome");
        assert_eq!(a.digest, tiny(w, 1, false).digest, "{w}: seed 1 is not deterministic");
    }
}

#[test]
fn lukewarm_takes_120_engine_samples() {
    let mut w = Lukewarm::new(Size::Tiny, 0);
    w.setup();
    let rep = w.rep(false);
    assert_eq!(rep.samples_ms.len(), 120);
    assert_eq!(rep.invocations, 120);
}
