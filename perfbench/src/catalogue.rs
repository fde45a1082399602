//! Every metric the benchmark reports: name, unit, better direction and
//! layer. `METRICS.md` explains each one; `BENCHMARK.json` lists the
//! same names, units and directions (a test keeps the three in step).

/// Which output a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by every run and reported with `--trace 0`.
    EndToEnd,
    /// Printed and kept in the result file, but not in the JSON line
    /// (see `METRICS.md`): values defined on `lukewarm` only, which
    /// `BENCHMARK.json` does not run, and values too seed-dependent
    /// for a bound.
    Printed,
    /// Reported with `--trace 1`.
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, kind: Kind::EndToEnd }
}

const fn printed(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, kind: Kind::Printed }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, kind: Kind::PerLayer }
}

pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("sim_mips", "Minstr/host-s", "higher"),
    e2e("inv_per_s", "inv/host-s", "higher"),
    e2e("rss_peak_mib", "MiB", "lower"),
    e2e("sim_cpi", "cycles/instr", "lower"),
    printed("inv_host_ms_p50", "ms", "lower"),
    printed("inv_host_ms_p90", "ms", "lower"),
    printed("sim_p99_latency_kcycles", "kcycles", "lower"),
    printed("sim_ignite_speedup", "x", "higher"),
    printed("ops_failed_frac", "fraction", "lower"),
    // engine
    layer("engine.run_ms", "ms", "lower"),
    printed("engine.host_ns_per_kcycle.nl", "ns/kcycle", "lower"),
    layer("engine.host_ns_per_kcycle.ignite", "ns/kcycle", "lower"),
    printed("engine.host_ns_per_kcycle.ignite_tage", "ns/kcycle", "lower"),
    printed("engine.host_ns_per_kinstr.nl", "ns/kinstr", "lower"),
    layer("engine.host_ns_per_kinstr.ignite", "ns/kinstr", "lower"),
    printed("engine.host_ns_per_kinstr.ignite_tage", "ns/kinstr", "lower"),
    printed("engine.flush_ms", "ms", "lower"),
    printed("engine.machine_ms", "ms", "lower"),
    layer("engine.prepare_ms", "ms", "lower"),
    // workloads
    layer("workloads.suite_build_ms", "ms", "lower"),
    layer("workloads.walker_ns_per_kinstr", "ns/kinstr", "lower"),
    layer("workloads.walker_engine_share", "fraction", "lower"),
    // uarch (exact counts)
    printed("uarch.l1i_mpki.nl", "misses/kinstr", "lower"),
    layer("uarch.l1i_mpki.ignite", "misses/kinstr", "lower"),
    printed("uarch.l1i_mpki.ignite_tage", "misses/kinstr", "lower"),
    printed("uarch.btb_mpki.nl", "misses/kinstr", "lower"),
    layer("uarch.btb_mpki.ignite", "misses/kinstr", "lower"),
    printed("uarch.btb_mpki.ignite_tage", "misses/kinstr", "lower"),
    printed("uarch.cbp_mpki.nl", "misses/kinstr", "lower"),
    layer("uarch.cbp_mpki.ignite", "misses/kinstr", "lower"),
    printed("uarch.cbp_mpki.ignite_tage", "misses/kinstr", "lower"),
    // core (exact counts)
    layer("core.replay.entries_restored", "count", "higher"),
    layer("core.replay.l2_prefetches", "count", "higher"),
    layer("core.record.metadata_bytes", "bytes", "lower"),
    // traffic
    layer("traffic.next_arrival_ms", "ms", "lower"),
    layer("traffic.next_arrival_calls", "count", "lower"),
    // cluster (span timings)
    layer("cluster.serve_ms", "ms", "lower"),
    layer("cluster.serve_us_p50", "us", "lower"),
    layer("cluster.serve_us_p99", "us", "lower"),
    layer("cluster.store_fetch_ms", "ms", "lower"),
    layer("cluster.install_ms", "ms", "lower"),
    layer("cluster.writeback_ms", "ms", "lower"),
    layer("cluster.sched_ms", "ms", "lower"),
    layer("cluster.des_self_ms", "ms", "lower"),
    // cluster (exact counts)
    layer("cluster.store.hits", "count", "higher"),
    layer("cluster.store.misses", "count", "lower"),
    layer("cluster.store.evictions", "count", "lower"),
    layer("cluster.store.rejects", "count", "lower"),
    layer("cluster.store.hit_rate", "fraction", "higher"),
    layer("cluster.store.peak_footprint_bytes", "bytes", "lower"),
    layer("cluster.queue_mean_kcycles", "kcycles", "lower"),
    layer("cluster.util_mean", "fraction", "lower"),
    layer("cluster.keepalive_wasted_mcycles", "Mcycles", "lower"),
    layer("cluster.invocations", "count", "higher"),
    layer("cluster.makespan_mcycles", "Mcycles", "lower"),
    // cluster.render, obs, scope, control
    layer("render.report_ms", "ms", "lower"),
    layer("render.validate_ms", "ms", "lower"),
    layer("render.prom_ms", "ms", "lower"),
    layer("render.chrome_ms", "ms", "lower"),
    layer("render.scope_ms", "ms", "lower"),
    layer("obs.record_ms", "ms", "lower"),
    layer("obs.events", "count", "lower"),
    layer("scope.fold_ms", "ms", "lower"),
    layer("control.hook_ms", "ms", "lower"),
    layer("control.hook_calls", "count", "lower"),
    layer("control.decisions", "count", "lower"),
    // the benchmark itself
    layer("bench.trace_overhead_frac", "fraction", "lower"),
];

/// The metric called `name`.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics of one kind, in catalogue order.
pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.kind == kind)
}
