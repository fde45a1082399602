//! `ignite-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lukewarm|mmpp-stream|fleet-observed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It drives the library crates from
//! outside, checks the simulated outputs, and prints every metric by
//! name and unit; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`).
//! A result file with provenance, and on traced runs the span file, go
//! to `.bench_out/`. See `perfbench/METRICS.md`.

mod catalogue;
mod cluster;
mod layers;
mod lukewarm;
mod probe;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use run::{Args, RunResult, WORKLOADS};
use workload::Size;

/// The committed report the correctness gate byte-matches.
const GOLDEN: &str = "tests/golden/traffic_mmpp.json";
/// Where result and span files go, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: ignite-perfbench --workload lukewarm|mmpp-stream|fleet-observed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The workspace crate version from the root manifest.
fn crate_version() -> String {
    std::fs::read_to_string("Cargo.toml")
        .ok()
        .and_then(|m| {
            let section = m.split("[workspace.package]").nth(1)?;
            let line = section.lines().find(|l| l.trim_start().starts_with("version"))?;
            Some(line.split('"').nth(1)?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalogue::metric(name).expect("catalogued").unit;
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full result file: provenance, metrics, checks and layer table.
fn result_file(args: &Args, r: &RunResult, provenance: &[(&'static str, String)]) -> String {
    let prov: Vec<String> =
        provenance.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let checks: Vec<String> = r
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| {
            format!("{{\"name\": {}, \"detail\": {}}}", json_str(&c.name), json_str(&c.detail))
        })
        .collect();
    let table: Vec<String> =
        r.table.iter().map(|(k, ms)| format!("{}: {ms}", json_str(k))).collect();
    format!(
        "{{\"schema\": \"ignite-perfbench-v1\", \"workload\": {}, \"seed\": {}, \"trace\": {}, \
         \"provenance\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"checks_run\": {}, \"failed_checks\": [{}], \"metrics\": {}, \"printed\": {}, \
         \"traced_wall_ms\": {}, \"layer_ms\": {{{}}}}}\n",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        prov.join(", "),
        r.correct(),
        r.attempted,
        r.failed,
        r.checks.len(),
        checks.join(", "),
        metrics_json(&r.metrics),
        metrics_json(&r.printed),
        r.traced_wall_ms,
        table.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ignite-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let golden = match std::fs::read_to_string(GOLDEN) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ignite-perfbench: cannot read {GOLDEN} ({e}); run from the repository root");
            return ExitCode::from(2);
        }
    };
    let mut provenance = vec![
        ("git_revision", git_revision()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("crate_version", crate_version()),
        ("bench_version", env!("CARGO_PKG_VERSION").to_string()),
        ("nproc", std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string())),
        (
            "loadavg_start",
            std::fs::read_to_string("/proc/loadavg").map_or("unknown".into(), |l| l.trim().into()),
        ),
    ];
    let r = run::run(&args, &golden, Size::Full).expect("workload name checked by parse_args");
    provenance.extend(r.provenance.iter().cloned());
    provenance.push(("outcome_digest", format!("{:016x}", r.digest)));

    for (k, v) in &provenance {
        println!("provenance {k} = {v}");
    }
    for c in r.checks.iter().filter(|c| !c.passed) {
        println!("FAILED check: {}: {}", c.name, c.detail);
    }
    println!(
        "checks: {} run, {} failed",
        r.checks.len(),
        r.checks.iter().filter(|c| !c.passed).count()
    );
    for (name, value) in r.metrics.iter().chain(&r.printed) {
        let m = catalogue::metric(name).expect("catalogued");
        println!("metric {name} = {value} {} ({} is better)", m.unit, m.better);
    }
    for n in &r.notes {
        println!("note {n}");
    }
    if args.trace {
        println!("where the wall time goes (median traced rep, {:.1} ms):", r.traced_wall_ms);
        for (row, ms) in &r.table {
            let share = if r.traced_wall_ms > 0.0 { ms / r.traced_wall_ms * 100.0 } else { 0.0 };
            println!("  {row:<24} {ms:>12.3} ms {share:>6.2}%");
        }
        let overhead = r.metrics.iter().find(|(k, _)| *k == "bench.trace_overhead_frac");
        if let Some((_, v)) = overhead {
            println!("  bench.trace_overhead_frac = {v:.4}");
        }
    }

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                Path::new(OUT_DIR).join(format!("result-{stem}.json")),
                result_file(&args, &r, &provenance),
            )
        })
        .and_then(|()| match &r.spans {
            Some(s) => {
                std::fs::write(Path::new(OUT_DIR).join(format!("spans-{stem}.jsonl")), s.to_jsonl())
            }
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("ignite-perfbench: cannot write {OUT_DIR}: {e}");
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    );
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
