//! `lukewarm`: the paper's §5.3 protocol at paper scale.
//!
//! All 20 suite functions under NL, Ignite and Ignite+TAGE. Each
//! (function, config) pair gets a fresh machine, one warm-up and one
//! measured invocation, with a full flush and bimodal randomisation
//! (`Machine::between_invocations`) between them: 120 engine calls per
//! repetition. The seed picks the invocation numbers the trace walker
//! is seeded with (seed 0 is the protocol of `figures fig8 --quick`).

use std::time::Instant;

use ignite_engine::sim::{run_invocation_ctx, InvocationCtx};
use ignite_engine::{FrontEndConfig, InvocationResult, Machine, PreparedFunction};
use ignite_uarch::UarchConfig;
use ignite_workloads::{CodeImage, Suite};

use crate::layers::{Spans, BENCH_LOOP};
use crate::stats::{digest_debug, fnv, percentile};
use crate::workload::{secs, Check, Rep, SetupTimes, Size, Walk, Workload};

/// The configurations, keyed by the suffix the per-layer metrics use.
pub const CONFIGS: [&str; 3] = ["nl", "ignite", "ignite_tage"];

fn config(key: &str) -> FrontEndConfig {
    match key {
        "nl" => FrontEndConfig::nl(),
        "ignite" => FrontEndConfig::ignite(),
        _ => FrontEndConfig::ignite_tage(),
    }
}

fn engine_span(key: &str) -> &'static str {
    match key {
        "nl" => "engine.run.nl",
        "ignite" => "engine.run.ignite",
        _ => "engine.run.ignite_tage",
    }
}

/// Mean Ignite speedup over NL in the paper's Fig. 8.
pub const PAPER_FIG8_IGNITE_MEAN: f64 = 1.43;

pub struct Lukewarm {
    scale: f64,
    seed: u64,
    uarch: UarchConfig,
    functions: Vec<PreparedFunction>,
    machines: Vec<Machine>,
}

impl Lukewarm {
    pub fn new(size: Size, seed: u64) -> Lukewarm {
        let scale = match size {
            Size::Full => 1.0,
            Size::Tiny => 0.02,
        };
        Lukewarm {
            scale,
            seed,
            uarch: UarchConfig::ice_lake_like(),
            functions: Vec::new(),
            machines: Vec::new(),
        }
    }

    /// The warm-up and measured invocation numbers.
    fn invocations(&self) -> (u64, u64) {
        let base = self.seed.wrapping_mul(2);
        (base, base.wrapping_add(1))
    }
}

impl Workload for Lukewarm {
    fn setup(&mut self) -> SetupTimes {
        self.functions.clear();
        self.machines.clear();
        let start = Instant::now();
        let suite = Suite::paper_suite_scaled(self.scale);
        let built = Instant::now();
        self.functions = suite
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
            .collect();
        let prepared = Instant::now();
        self.machines = CONFIGS.iter().map(|k| Machine::new(&self.uarch, &config(k))).collect();
        SetupTimes {
            total_s: secs(start),
            suite_ms: crate::workload::ms_between(start, built),
            prepare_ms: crate::workload::ms_between(built, prepared),
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let (warm_inv, measured_inv) = self.invocations();
        // Lukewarm: the data working set is fully cold, as
        // `run_invocation` derives from the flushing state policy.
        let ctx = InvocationCtx { data_cold_fraction: 1.0, bypass_ignite: false };
        let pairs = self.functions.len() * CONFIGS.len();
        let mut stamps: Vec<[Instant; 5]> = Vec::with_capacity(pairs);
        let mut results: Vec<(InvocationResult, InvocationResult)> = Vec::with_capacity(pairs);
        let start = Instant::now();
        for f in &self.functions {
            for proto in &self.machines {
                let t0 = Instant::now();
                let mut m = proto.clone();
                let t1 = Instant::now();
                let warm = run_invocation_ctx(&mut m, f, warm_inv, ctx);
                let t2 = Instant::now();
                m.between_invocations();
                let t3 = Instant::now();
                let measured = run_invocation_ctx(&mut m, f, measured_inv, ctx);
                let t4 = Instant::now();
                stamps.push([t0, t1, t2, t3, t4]);
                results.push((warm, measured));
            }
        }
        let end = Instant::now();

        let mut rep = Rep::new(end.duration_since(start).as_secs_f64());
        for s in &stamps {
            rep.segments_s.extend(s.windows(2).map(|w| w[1].duration_since(w[0]).as_secs_f64()));
            rep.samples_ms.push(s[2].duration_since(s[1]).as_secs_f64() * 1e3);
            rep.samples_ms.push(s[4].duration_since(s[3]).as_secs_f64() * 1e3);
        }
        rep.invocations = 2 * results.len() as u64;
        rep.digest =
            fnv(&results.iter().map(digest_debug).flat_map(u64::to_le_bytes).collect::<Vec<u8>>());

        let mut measured_cycles = Vec::with_capacity(results.len());
        let (mut cycles, mut instrs) = (0u64, 0u64);
        let mut per_config: Vec<InvocationResult> =
            vec![InvocationResult::default(); CONFIGS.len()];
        let mut speedup_sum = 0.0;
        let (mut restored, mut l2, mut record_bytes) = (0u64, 0u64, 0u64);
        for (fi, chunk) in results.chunks(CONFIGS.len()).enumerate() {
            for (ci, (warm, measured)) in chunk.iter().enumerate() {
                let key = CONFIGS[ci];
                let w = rep.engine_work.entry(key).or_default();
                w.0 += warm.cycles + measured.cycles;
                w.1 += warm.instructions + measured.instructions;
                rep.instructions += warm.instructions + measured.instructions;
                cycles += measured.cycles;
                instrs += measured.instructions;
                measured_cycles.push(measured.cycles as f64);
                per_config[ci].merge(measured);
                for r in [warm, measured] {
                    restored += r.replay.entries_restored;
                    l2 += r.replay.l2_prefetches;
                    record_bytes += r.traffic.record_metadata_bytes;
                    rep.checks.push(Check::new(
                        format!("engine call {fi}/{key} retired work"),
                        if r.instructions > 0 && r.cycles > 0 {
                            Ok(())
                        } else {
                            Err(format!("{} instructions in {} cycles", r.instructions, r.cycles))
                        },
                    ));
                }
            }
            speedup_sum += chunk[0].1.cpi() / chunk[1].1.cpi();
        }
        // The walker inputs repeat across configs: walk each (function,
        // invocation) once.
        rep.walks = self
            .functions
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                [warm_inv, measured_inv].map(|invocation| Walk {
                    function: fi,
                    invocation,
                    instrs: f.invocation_instrs,
                    noise: f.noise,
                })
            })
            .collect();

        let speedup = speedup_sum / self.functions.len() as f64;
        rep.checks.push(Check::new(
            "ignite speedup is finite and positive",
            if speedup.is_finite() && speedup > 0.0 { Ok(()) } else { Err(format!("{speedup}")) },
        ));
        rep.sim.insert("sim_cpi", cycles as f64 / instrs as f64);
        rep.sim.insert("sim_p99_latency_kcycles", percentile(&measured_cycles, 99) / 1e3);
        rep.sim.insert("sim_ignite_speedup", speedup);
        for (ci, key) in CONFIGS.iter().enumerate() {
            let r = &per_config[ci];
            let (l1i, btb, cbp) = uarch_names(key);
            rep.sim.insert(l1i, r.l1i_mpki());
            rep.sim.insert(btb, r.btb_mpki());
            rep.sim.insert(cbp, r.cbp_mpki());
        }
        rep.sim.insert("core.replay.entries_restored", restored as f64);
        rep.sim.insert("core.replay.l2_prefetches", l2 as f64);
        rep.sim.insert("core.record.metadata_bytes", record_bytes as f64);

        if traced {
            let mut spans = Spans::new(start);
            let mut prev = start;
            for (i, s) in stamps.iter().enumerate() {
                let key = CONFIGS[i % CONFIGS.len()];
                if s[0] > prev {
                    spans.push(BENCH_LOOP, prev, s[0], 0, None);
                }
                let id = Some(i as u64);
                let pair = spans.push("lukewarm.pair", s[0], s[4], 0, id);
                spans.push("engine.machine", s[0], s[1], pair, id);
                spans.push(engine_span(key), s[1], s[2], pair, id);
                spans.push("engine.flush", s[2], s[3], pair, id);
                spans.push(engine_span(key), s[3], s[4], pair, id);
                prev = s[4];
            }
            if end > prev {
                spans.push(BENCH_LOOP, prev, end, 0, None);
            }
            spans.close(end);
            rep.spans = Some(spans);
        }
        rep
    }

    fn images(&self) -> Vec<&CodeImage> {
        self.functions.iter().map(|f| &f.image).collect()
    }

    fn provenance(&self) -> Vec<(&'static str, String)> {
        let (warm, measured) = self.invocations();
        let configs: Vec<FrontEndConfig> = CONFIGS.iter().map(|k| config(k)).collect();
        let fp =
            fnv(format!("{:?}|{:?}|{}|{warm}|{measured}", self.uarch, configs, self.scale)
                .as_bytes());
        vec![
            ("config_fingerprint", format!("{fp:016x}")),
            ("workload_fingerprint", format!(
                "protocol=lukewarm scale={} functions={} configs=nl,ignite,ignite_tage invocations={warm},{measured}",
                self.scale,
                self.functions.len()
            )),
        ]
    }
}

/// The per-config `uarch.*_mpki` metric names.
fn uarch_names(key: &str) -> (&'static str, &'static str, &'static str) {
    match key {
        "nl" => ("uarch.l1i_mpki.nl", "uarch.btb_mpki.nl", "uarch.cbp_mpki.nl"),
        "ignite" => ("uarch.l1i_mpki.ignite", "uarch.btb_mpki.ignite", "uarch.cbp_mpki.ignite"),
        _ => (
            "uarch.l1i_mpki.ignite_tage",
            "uarch.btb_mpki.ignite_tage",
            "uarch.cbp_mpki.ignite_tage",
        ),
    }
}
