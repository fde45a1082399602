//! The discrete-event cluster simulation proper.
//!
//! Every run is one private `ClusterState` stepped until no event is
//! left; [`ClusterSim::run`], [`ClusterSim::run_source`] and
//! [`ClusterSim::run_source_policy_obs`] all drive that one loop. Five
//! event sources advance it: trace arrivals, core completions, crash
//! restarts (a crashed core held until repair, or queued work waiting on
//! one), expired retry backoffs, and policy epochs (evaluated at the first
//! event time at or past each epoch boundary). Invocations queue FIFO per
//! node; a free core with the lowest index takes the head of the queue.
//!
//! One step handles one event time, always in the same order: the policy
//! epoch (when due), then every node's dispatch (nodes in index order),
//! then the clock moves to the next event time, where completions free
//! their cores (in core index order), then expired retries re-enter their
//! node's queue (in (ready cycle, job id) order), then arrivals at that
//! cycle are admitted in stream order. So a core freed at cycle `t` can
//! serve a request arriving at `t`, and every tie-break is total: a fixed
//! (seed, config) reproduces the run bit-exactly in any process.
//!
//! Each core owns a persistent [`Machine`] that is **never flushed**:
//! whatever function ran last left its code in the caches and its branches
//! in the BTB, and the next function finds exactly as much of its own
//! state as the interleaving allowed to survive. Only the abstract
//! back-end data model needs help — the per-(core, function) interleaving
//! distance sets [`InvocationCtx::data_cold_fraction`].

use std::collections::{BTreeMap, VecDeque};

use ignite_chaos::{ChaosPlan, ChaosState, ChaosStats, CircuitBreaker, RetryPolicy};
use ignite_core::codec::Metadata;
use ignite_core::{MetadataStore, StoreConfig, StoreStats};
use ignite_engine::config::FrontEndConfig;
use ignite_engine::machine::{Machine, PreparedFunction};
use ignite_engine::metrics::InvocationResult;
use ignite_engine::sim::{run_invocation_obs, InvocationCtx};
use ignite_obs::{DegradeReason, DropReason, Event, EventKind, EventSink, NullSink, Track};
use ignite_traffic::{FingerprintAccum, WorkloadFingerprint};
use ignite_uarch::UarchConfig;
use ignite_workloads::arrival::{Arrival, ArrivalConfig, ArrivalSource};
use ignite_workloads::suite::Suite;

use crate::fanout::{self, PanicFailure};
use crate::keepalive::{KeepAliveKind, KeepAliveRt};
use crate::policy::{ClusterGauges, ControllerStats, PolicyHook, PolicySample, StaticPolicy};
use crate::sched::{NodeLoad, Scheduler, SchedulerKind};

/// Inclusive upper bounds of the cluster latency histogram, in cycles
/// (doubling grid; latencies above the last bound land in the implicit
/// overflow bucket). [`ClusterOutcome::latency_histogram`] and the
/// metrics exposition in [`crate::prom`] share this grid.
pub const LATENCY_BUCKETS: [u64; 10] = [
    50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 6_400_000, 12_800_000,
    25_600_000,
];

/// Cluster topology: how many nodes there are and which placement and
/// keep-alive policies govern them. The default — one node, FIFO
/// first-fit, no keep-alive — is the pre-multinode simulator exactly,
/// and every committed golden was produced under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of nodes. Each node owns [`ClusterConfig::cores`] cores,
    /// its own metadata store, and its own chaos failure domain.
    pub nodes: usize,
    /// Placement policy routing arrivals onto nodes.
    pub scheduler: SchedulerKind,
    /// Post-completion pinning policy for Ignite regions.
    pub keepalive: KeepAliveKind,
}

impl Default for Topology {
    fn default() -> Self {
        Topology { nodes: 1, scheduler: SchedulerKind::Fifo, keepalive: KeepAliveKind::None }
    }
}

impl Topology {
    /// Whether this is the single-node legacy topology. Reports,
    /// metrics, and traces gate every multi-node section on this, so
    /// `--nodes 1 --scheduler fifo` output stays byte-identical to the
    /// committed goldens.
    pub fn is_default(&self) -> bool {
        *self == Topology::default()
    }
}

/// A configuration the simulator refuses to run, with enough structure
/// for callers to match on. [`std::fmt::Display`] names the offending
/// field; the CLI prints it and exits nonzero instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `topology.nodes == 0`.
    ZeroNodes,
    /// `cores == 0` (cores are per node).
    ZeroCores,
    /// A float field that must be finite and positive was not.
    NonPositive {
        /// Field name as spelled in the config.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `arrival.zipf_s` was negative or non-finite.
    BadZipf {
        /// The rejected value.
        value: f64,
    },
    /// `retry.max_attempts == 0` (the first attempt counts).
    ZeroRetryAttempts,
    /// `retry.jitter_ppm` above the PPM scale.
    JitterOverScale {
        /// The rejected value.
        got: u32,
    },
    /// A straggle window that would *speed cores up*.
    StraggleFactorTooSmall {
        /// The rejected milli-factor.
        got: u32,
    },
    /// A chaos stream with an MTBF but no duration.
    ZeroChaosDuration {
        /// Which stream: `crash`, `straggle`, or `store_unavail`.
        stream: &'static str,
    },
    /// A scheduler spec that parses to nothing (typo guard).
    UnknownScheduler {
        /// The rejected spec string.
        spec: String,
    },
    /// A keep-alive spec that parses to nothing (typo guard).
    UnknownKeepAlive {
        /// The rejected spec string.
        spec: String,
    },
    /// `random:N` scheduler with zero choices.
    ZeroSchedulerChoices,
    /// A fixed/hybrid keep-alive with a zero window.
    ZeroKeepAliveWindow,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "topology.nodes must be at least 1"),
            ConfigError::ZeroCores => write!(f, "cores must be at least 1"),
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be finite and positive, got {value}")
            }
            ConfigError::BadZipf { value } => {
                write!(f, "zipf_s must be finite and non-negative, got {value}")
            }
            ConfigError::ZeroRetryAttempts => write!(f, "retry.max_attempts must be at least 1"),
            ConfigError::JitterOverScale { got } => {
                write!(
                    f,
                    "retry.jitter_ppm must be at most {}, got {got}",
                    ignite_core::fault::PPM_SCALE
                )
            }
            ConfigError::StraggleFactorTooSmall { got } => {
                write!(f, "chaos.straggle_factor_milli must be at least 1000, got {got}")
            }
            ConfigError::ZeroChaosDuration { stream } => {
                write!(f, "chaos.{stream}_mtbf_cycles is set but its duration is 0")
            }
            ConfigError::UnknownScheduler { spec } => {
                write!(
                    f,
                    "unknown scheduler spec {spec:?} (want fifo, least-loaded, random[:N], \
                     or affinity)"
                )
            }
            ConfigError::UnknownKeepAlive { spec } => {
                write!(
                    f,
                    "unknown keepalive spec {spec:?} (want none, fixed:CYCLES, or hybrid[:CYCLES])"
                )
            }
            ConfigError::ZeroSchedulerChoices => {
                write!(f, "scheduler random choices must be at least 1")
            }
            ConfigError::ZeroKeepAliveWindow => {
                write!(f, "keepalive window_cycles must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything that defines one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated cores **per node**.
    pub cores: usize,
    /// Node count and the placement/keep-alive policies over them.
    pub topology: Topology,
    /// Front-end configuration of every core.
    pub fe: FrontEndConfig,
    /// Workload suite scale (1.0 = paper scale).
    pub scale: f64,
    /// Arrival process parameters (ignored when replaying a trace).
    pub arrival: ArrivalConfig,
    /// Node-wide metadata store sizing and policy.
    pub store: StoreConfig,
    /// Interleaving distance (invocations by *other* functions on the same
    /// core) at which a function's data working set counts as fully cold.
    pub distance_saturation: f64,
    /// Metadata transfer bandwidth between the node store and a core's
    /// replay engine; fetch/writeback cycles are charged to service time.
    pub dram_bytes_per_cycle: f64,
    /// Failure injection schedule. `None` (the default) disables the
    /// chaos layer entirely: the simulation takes the exact pre-chaos
    /// code paths and produces byte-identical reports (the
    /// zero-cost-when-off contract, same bar as observability).
    pub chaos: Option<ChaosPlan>,
    /// Recovery policy (deadlines, retry/backoff, circuit breaker).
    /// Only consulted when `chaos` is set.
    pub retry: RetryPolicy,
    /// The raw `--traffic` spec string when a non-default workload drove
    /// the run (`None` for the built-in Poisson/Zipf process). Purely
    /// descriptive: the simulator never parses it, but the report echoes
    /// it and gates the workload-fingerprint section on it, so reports
    /// from shaped workloads are self-describing and `scope diff` can
    /// refuse cross-workload comparisons.
    pub traffic: Option<String>,
    /// The raw `--controller` spec string when an online policy
    /// controller drove the run (`None` for static policy). Purely
    /// descriptive, like [`ClusterConfig::traffic`]: the simulator
    /// never parses it, but the report echoes it and gates the
    /// `controller` section on it.
    pub controller: Option<String>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores: 4,
            topology: Topology::default(),
            fe: FrontEndConfig::ignite(),
            scale: 0.02,
            arrival: ArrivalConfig::default(),
            store: StoreConfig::default(),
            distance_saturation: 8.0,
            dram_bytes_per_cycle: 8.0,
            chaos: None,
            retry: RetryPolicy::default(),
            traffic: None,
            controller: None,
        }
    }
}

impl ClusterConfig {
    /// Rejects configurations the simulator cannot run meaningfully,
    /// with a typed [`ConfigError`] naming the offending field. The CLI
    /// calls this before constructing a simulator and exits nonzero on
    /// `Err`; library callers that build configs programmatically get
    /// the same typed check instead of a mid-run panic or a silent
    /// nonsense run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.topology.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if let SchedulerKind::Random { choices: 0 } = self.topology.scheduler {
            return Err(ConfigError::ZeroSchedulerChoices);
        }
        match self.topology.keepalive {
            KeepAliveKind::Fixed { window_cycles: 0 }
            | KeepAliveKind::Hybrid { default_window_cycles: 0 } => {
                return Err(ConfigError::ZeroKeepAliveWindow);
            }
            _ => {}
        }
        for (field, value) in [
            ("scale", self.scale),
            ("rate_per_mcycle", self.arrival.rate_per_mcycle),
            ("distance_saturation", self.distance_saturation),
            ("dram_bytes_per_cycle", self.dram_bytes_per_cycle),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::NonPositive { field, value });
            }
        }
        if !self.arrival.zipf_s.is_finite() || self.arrival.zipf_s < 0.0 {
            return Err(ConfigError::BadZipf { value: self.arrival.zipf_s });
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        if self.retry.jitter_ppm > ignite_core::fault::PPM_SCALE {
            return Err(ConfigError::JitterOverScale { got: self.retry.jitter_ppm });
        }
        if let Some(plan) = &self.chaos {
            if plan.straggle_mtbf_cycles > 0 && plan.straggle_factor_milli < 1000 {
                return Err(ConfigError::StraggleFactorTooSmall {
                    got: plan.straggle_factor_milli,
                });
            }
            for (stream, mtbf, duration) in [
                ("crash", plan.crash_mtbf_cycles, plan.crash_repair_cycles),
                ("straggle", plan.straggle_mtbf_cycles, plan.straggle_duration_cycles),
                ("store_unavail", plan.store_unavail_mtbf_cycles, {
                    plan.store_unavail_duration_cycles
                }),
            ] {
                if mtbf > 0 && duration == 0 {
                    return Err(ConfigError::ZeroChaosDuration { stream });
                }
            }
        }
        Ok(())
    }
}

/// How one core was used over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreUsage {
    /// Invocations this core served.
    pub invocations: u64,
    /// Cycles spent serving (busy) out of the makespan.
    pub busy_cycles: u64,
    /// `busy_cycles / makespan`, 0.0 for an empty run.
    pub utilization: f64,
}

/// Aggregated measurements for one suite function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionSummary {
    /// Table-1 abbreviation.
    pub abbr: String,
    /// Invocations completed.
    pub invocations: u64,
    /// Latency percentiles (arrival → completion), in cycles.
    pub p50_latency: u64,
    /// 95th percentile latency.
    pub p95_latency: u64,
    /// 99th percentile latency.
    pub p99_latency: u64,
    /// Mean service time (dispatch → completion), in cycles.
    pub mean_service: f64,
    /// Mean queueing delay (arrival → dispatch), in cycles.
    pub mean_queue: f64,
    /// Mean data-cold fraction at dispatch (0 = always back-to-back warm).
    pub mean_cold_fraction: f64,
    /// Metadata store hits for this function's container.
    pub metadata_hits: u64,
    /// Metadata store misses.
    pub metadata_misses: u64,
    /// Retries scheduled for this function (0 without chaos).
    pub retries: u64,
    /// Completions that ran degraded — cold instead of replayed
    /// (0 without chaos).
    pub degraded: u64,
    /// Invocations dropped with reason (0 without chaos).
    pub dropped: u64,
    /// Completions that found no metadata (store miss, degraded, or
    /// Ignite off) — the dslab-faas "cold start" bucket.
    pub cold_starts: u64,
    /// Completions that hit the store but dispatched onto a core whose
    /// data working set had partially cooled (`cold_fraction > 0`).
    pub lukewarm_starts: u64,
    /// Completions that hit the store back-to-back warm
    /// (`cold_fraction == 0`).
    pub warm_starts: u64,
    /// Fastest observed service time — the always-warm proxy the
    /// slowdown metric divides by (0 when never invoked).
    pub min_service: u64,
    /// Keep-alive cycles spent pinning this function's region without a
    /// reuse (0 under [`KeepAliveKind::None`]).
    pub wasted_keepalive_cycles: u64,
    /// Per-invocation engine measurements, summed over all invocations.
    pub result: InvocationResult,
}

impl FunctionSummary {
    /// Store hit rate for this function, 0.0 when it never dispatched.
    pub fn metadata_hit_rate(&self) -> f64 {
        let total = self.metadata_hits + self.metadata_misses;
        if total == 0 {
            0.0
        } else {
            self.metadata_hits as f64 / total as f64
        }
    }

    /// Mean service time over the always-warm proxy (`min_service`):
    /// 1.0 means every run was as fast as the best observed, higher
    /// means cold starts are costing real time. 0.0 when never invoked.
    pub fn slowdown(&self) -> f64 {
        if self.min_service == 0 {
            0.0
        } else {
            self.mean_service / self.min_service as f64
        }
    }
}

/// How one node was used over the run (multi-node reports serialize
/// one section per entry; a single-node run still carries its one
/// entry internally).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeUsage {
    /// Jobs the scheduler routed to this node.
    pub submitted: u64,
    /// Jobs that completed here.
    pub completed: u64,
    /// Jobs that terminally dropped here (0 without chaos). The
    /// per-node conservation law `submitted == completed + dropped`
    /// holds because retries re-enter their original node's queue.
    pub dropped: u64,
    /// Deepest dispatch queue observed on this node.
    pub queue_peak: u64,
    /// Busy cycles summed over the node's cores.
    pub busy_cycles: u64,
    /// Mean utilization of the node's cores over the makespan.
    pub utilization: f64,
    /// This node's metadata store counters.
    pub store: StoreStats,
    /// Store bytes resident on this node at the end of the run.
    pub footprint_bytes: usize,
    /// High-water mark of this node's store footprint.
    pub peak_footprint_bytes: usize,
    /// Keep-alive cycles this node spent pinning regions nobody reused.
    pub wasted_keepalive_cycles: u64,
}

/// The outcome of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Invocations completed (equals the trace length).
    pub invocations: u64,
    /// Cycle of the last completion (0 for an empty trace).
    pub makespan: u64,
    /// Per-core usage, in global core order (node-major: node 0's
    /// cores, then node 1's, ...).
    pub cores: Vec<CoreUsage>,
    /// Per-node usage, in node order (one entry for a 1-node run).
    pub nodes: Vec<NodeUsage>,
    /// Per-function summaries, in suite order.
    pub functions: Vec<FunctionSummary>,
    /// Metadata store counters, summed over every node's store.
    pub store: StoreStats,
    /// Store bytes resident at the end of the run (sum over nodes).
    pub footprint_bytes: usize,
    /// Store high-water mark (sum of per-node peaks; nodes peak at
    /// different times, so this bounds — and for one node equals — the
    /// true cluster-wide peak).
    pub peak_footprint_bytes: usize,
    /// Cluster-wide latency percentiles over all invocations, in cycles.
    pub p50_latency: u64,
    /// 95th percentile.
    pub p95_latency: u64,
    /// 99th percentile.
    pub p99_latency: u64,
    /// Mean latency over all invocations, in cycles.
    pub mean_latency: f64,
    /// Latency counts per [`LATENCY_BUCKETS`] bound (non-cumulative),
    /// plus one trailing overflow bucket.
    pub latency_histogram: Vec<u64>,
    /// Sum of all invocation latencies, in cycles.
    pub latency_sum: u64,
    /// Chaos ledger (`Some` iff the config enabled chaos). Its
    /// conservation law — `submitted == completed + dropped` — is
    /// enforced by the `ignite-cluster-v2` report validator.
    pub chaos: Option<ChaosStats>,
    /// Statistical fingerprint of the arrival stream the run consumed.
    /// Always computed (it is O(1) per arrival); serialized into the
    /// report only when [`ClusterConfig::traffic`] is set.
    pub workload: WorkloadFingerprint,
    /// Controller decision audit trail (`Some` iff the run went through
    /// [`ClusterSim::run_source_policy_obs`] with an enabled policy).
    /// Absent for static-policy runs, so every controller-off report
    /// stays byte-identical to the committed goldens.
    pub controller: Option<ControllerStats>,
}

impl ClusterOutcome {
    /// Engine measurements summed over every function (the aggregate
    /// `ReplayStats` live in `.replay` / `.replay_unfinished`).
    pub fn total_result(&self) -> InvocationResult {
        let mut total = InvocationResult::default();
        for f in &self.functions {
            total.merge(&f.result);
        }
        total
    }

    /// Mean core utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
        }
    }

    /// Total keep-alive cycles spent pinning regions nobody reused
    /// (0 under [`KeepAliveKind::None`]).
    pub fn wasted_keepalive_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.wasted_keepalive_cycles).sum()
    }
}

struct Core {
    machine: Machine,
    busy_until: u64,
    busy: bool,
    /// Dispatches on this core so far (the per-core sequence number).
    seq: u64,
    /// Function index → `seq` at its last dispatch here.
    last_seq: BTreeMap<usize, u64>,
    /// Invocations and busy cycles so far (utilization is set at the end).
    usage: CoreUsage,
}

impl Core {
    fn new(sim: &ClusterSim) -> Self {
        Core {
            machine: Machine::new(&sim.uarch, &sim.cfg.fe),
            busy_until: 0,
            busy: false,
            seq: 0,
            last_seq: BTreeMap::new(),
            usage: CoreUsage::default(),
        }
    }

    /// Records a dispatch of function `fi` and returns its data-cold
    /// fraction. Interleaving distance d counts the invocations of
    /// *other* functions on this core since `fi` last ran here; d = 0
    /// (back-to-back) is fully warm, and coldness saturates at
    /// `saturation`.
    fn touch(&mut self, fi: usize, saturation: f64) -> f64 {
        let cold = match self.last_seq.get(&fi) {
            None => 1.0,
            Some(&s) => {
                let d = (self.seq - s - 1) as f64;
                (d / saturation.max(1.0)).min(1.0)
            }
        };
        self.last_seq.insert(fi, self.seq);
        self.seq += 1;
        cold
    }
}

#[derive(Default)]
struct FunctionState {
    /// The counters reported as they are (`min_service` starts at
    /// `u64::MAX`); the latency-derived fields are set at the end.
    summary: FunctionSummary,
    latencies: Vec<u64>,
    service_cycles: u64,
    queue_cycles: u64,
    cold_sum: f64,
    /// Global invocation counter (seeds the trace walker, so control flow
    /// drifts across invocations like the per-function protocol's does).
    count: u64,
}

/// One node's dispatch state: its metadata store, its FIFO queue and
/// its ledger (`submitted`, `completed`, `dropped`, `queue_peak`; the
/// rest is set at the end).
struct Node {
    store: MetadataStore,
    queue: VecDeque<Job>,
    usage: NodeUsage,
}

impl Node {
    fn enqueue(&mut self, job: Job) {
        self.queue.push_back(job);
        self.usage.queue_peak = self.usage.queue_peak.max(self.queue.len() as u64);
    }
}

/// One invocation's scheduler state, carried across attempts. Without
/// chaos every job completes on its first attempt and the accumulators
/// reduce to the pre-chaos arithmetic exactly (`queue_accum ==
/// dispatch - arrival`, `lost_cycles == 0`).
struct Job {
    arrival: Arrival,
    /// Node the scheduler placed this job on. Retries stay here, so
    /// each node's ledger closes under its own conservation law.
    node: usize,
    /// Global submission index (keys the retry queue and the pure-hash
    /// chaos draws).
    id: u64,
    /// Attempt about to run, 1-based.
    attempt: u32,
    /// When this job last joined the dispatch queue (arrival cycle, or
    /// retry-ready cycle).
    enqueued_at: u64,
    /// Cycles spent queued, summed over attempts.
    queue_accum: u64,
    /// Cycles lost to failed attempts and backoff waits (the
    /// `retry_cycles` attribution component).
    lost_cycles: u64,
}

/// Chaos runtime: the realized schedule, recovery policy state, the
/// backoff-pending retry queue, and the ledger.
struct ChaosRt {
    state: ChaosState,
    retry: RetryPolicy,
    /// Per-function circuit breakers, suite order.
    breakers: Vec<CircuitBreaker>,
    /// Jobs waiting out a backoff: `(ready_cycle, id) -> job`. The id
    /// tie-break keeps draining order total.
    ready: BTreeMap<(u64, u64), Job>,
    stats: ChaosStats,
}

/// What became of one dispatch attempt.
enum Served {
    /// Ran to completion at the given cycle.
    Done { completion: u64 },
    /// A core crash killed the attempt at the given cycle; the core is
    /// occupied until its restart.
    Killed { at: u64 },
}

/// One dispatch attempt, filled in stage by stage.
#[derive(Default)]
struct Attempt {
    /// Data-cold fraction from the core's interleaving distance.
    cold: f64,
    /// Metadata transfer cycles: the fetch, plus the writeback once it
    /// commits.
    md_cycles: u64,
    store_hit: bool,
    /// Why chaos degraded this attempt to a cold run, if it did.
    degrade: Option<DegradeReason>,
    /// An open circuit breaker bypasses record/replay entirely.
    breaker_bypass: bool,
    /// The policy denied replay admission.
    policy_bypass: bool,
    res: InvocationResult,
    /// Compute cycles, stretched by any straggle window.
    exec_cycles: u64,
    straggled: bool,
    /// The (merged) region the engine handed back for writeback.
    taken: Option<Metadata>,
    service: u64,
    completion: u64,
    /// Store evictions/rejections the writeback caused, recorded at
    /// completion time (collected only when the sink is enabled).
    store_events: Vec<EventKind>,
}

/// The simulator: a prepared fleet ready to serve traces.
pub struct ClusterSim {
    cfg: ClusterConfig,
    uarch: UarchConfig,
    functions: Vec<PreparedFunction>,
    abbrs: Vec<String>,
}

impl ClusterSim {
    /// Prepares the paper suite at the configured scale.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero cores or a non-positive scale.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        let suite = Suite::paper_suite_scaled(cfg.scale);
        let functions: Vec<PreparedFunction> = suite
            .functions()
            .iter()
            .enumerate()
            .map(|(i, f)| PreparedFunction::from_suite(f, i as u64))
            .collect();
        let abbrs = suite.functions().iter().map(|f| f.profile.abbr.clone()).collect();
        ClusterSim { cfg, uarch: UarchConfig::ice_lake_like(), functions, abbrs }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Serves the configured Poisson/Zipf arrival process over the whole
    /// suite, streamed from [`ArrivalConfig::source`]. The outcome equals
    /// replaying [`ArrivalConfig::generate`]'s trace, which drains the
    /// same source.
    pub fn run(&self) -> ClusterOutcome {
        let mut arrival = self.cfg.arrival;
        arrival.functions = self.functions.len();
        self.run_source(&mut arrival.source())
    }

    /// Serves a streaming [`ArrivalSource`], pulling one arrival at a
    /// time, so a million-invocation workload runs in O(1) arrival state.
    /// A materialized trace replays through
    /// [`TraceSource`](ignite_workloads::arrival::TraceSource).
    ///
    /// # Panics
    ///
    /// Panics if the source declares more functions than the suite has.
    pub fn run_source<A: ArrivalSource + ?Sized>(&self, source: &mut A) -> ClusterOutcome {
        self.run_source_policy_obs(source, &mut NullSink, &mut StaticPolicy)
    }

    /// [`ClusterSim::run_source`] with observation and an active policy.
    /// Every DES transition, store access outcome and record/replay
    /// episode is reported to `sink`. The four actuation points (replay
    /// admission, store writeback admission, schedulable-core mask,
    /// keep-alive window) consult `policy`, which also observes every
    /// completion's attribution sample; its epoch decisions land on the
    /// `Track::Controller` trace track. Every emission and actuation site
    /// is guarded, so a disabled sink ([`NullSink`]) and policy
    /// ([`StaticPolicy`]) add no work and no state.
    ///
    /// # Panics
    ///
    /// Panics if the source declares more functions than the suite has.
    pub fn run_source_policy_obs<A: ArrivalSource + ?Sized, S: EventSink, P: PolicyHook>(
        &self,
        source: &mut A,
        sink: &mut S,
        policy: &mut P,
    ) -> ClusterOutcome {
        let mut state = ClusterState::new(self, source, sink, policy);
        while state.step() {}
        state.finish()
    }

    /// Cycles to move `bytes` of metadata at the configured bandwidth.
    fn transfer_cycles(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.cfg.dram_bytes_per_cycle.max(1.0)).ceil() as u64
    }
}

/// Records one instantaneous event when the sink is enabled.
#[inline]
fn emit<S: EventSink>(sink: &mut S, ts: u64, track: Track, kind: EventKind) {
    if sink.enabled() {
        sink.record(Event { ts, dur: 0, track, kind });
    }
}

/// One cluster run in progress: everything the event loop carries from
/// one event time to the next. [`ClusterState::step`] handles one event
/// time; [`ClusterState::finish`] builds the [`ClusterOutcome`].
struct ClusterState<'a, A: ?Sized, S, P> {
    sim: &'a ClusterSim,
    source: &'a mut A,
    sink: &'a mut S,
    policy: &'a mut P,
    ignite_on: bool,
    nodes: Vec<Node>,
    sched: Scheduler,
    keepalive: KeepAliveRt,
    /// Every core in global order (node-major), so completion and
    /// freeing sweeps keep the exact single-node iteration order.
    cores: Vec<Core>,
    fns: Vec<FunctionState>,
    chaos: Option<ChaosRt>,
    /// One-arrival look-ahead: the head of the stream, needed to pick
    /// the next event time. Refilled from the source on consumption —
    /// the only arrival state held, whatever the stream length.
    pending: Option<Arrival>,
    fingerprint: FingerprintAccum,
    /// Arrivals admitted so far (the next job id).
    submitted: u64,
    now: u64,
    makespan: u64,
}

impl<'a, A: ArrivalSource + ?Sized, S: EventSink, P: PolicyHook> ClusterState<'a, A, S, P> {
    fn new(sim: &'a ClusterSim, source: &'a mut A, sink: &'a mut S, policy: &'a mut P) -> Self {
        assert!(
            source.functions() <= sim.functions.len(),
            "source declares {} functions, suite has {}",
            source.functions(),
            sim.functions.len()
        );
        let cfg = &sim.cfg;
        let nnodes = cfg.topology.nodes;
        let breaker =
            CircuitBreaker::new(cfg.retry.breaker_threshold, cfg.retry.breaker_cooldown_cycles);
        let chaos = cfg.chaos.map(|plan| ChaosRt {
            state: ChaosState::for_cluster(plan, nnodes, cfg.cores),
            retry: cfg.retry,
            breakers: vec![breaker; sim.abbrs.len()],
            ready: BTreeMap::new(),
            stats: ChaosStats::default(),
        });
        let pending = source.next_arrival();
        let fingerprint = FingerprintAccum::new(source.functions());
        ClusterState {
            sim,
            source,
            sink,
            policy,
            ignite_on: cfg.fe.select.ignite.is_some(),
            nodes: (0..nnodes)
                .map(|_| Node {
                    store: MetadataStore::new(cfg.store),
                    queue: VecDeque::new(),
                    usage: NodeUsage::default(),
                })
                .collect(),
            sched: Scheduler::new(cfg.topology.scheduler, cfg.arrival.seed),
            keepalive: KeepAliveRt::new(cfg.topology.keepalive, nnodes, sim.abbrs.len()),
            cores: (0..nnodes * cfg.cores).map(|_| Core::new(sim)).collect(),
            fns: (sim.abbrs.iter())
                .map(|abbr| {
                    let summary = FunctionSummary {
                        abbr: abbr.clone(),
                        min_service: u64::MAX,
                        ..FunctionSummary::default()
                    };
                    FunctionState { summary, ..FunctionState::default() }
                })
                .collect(),
            chaos,
            pending,
            fingerprint,
            submitted: 0,
            now: 0,
            makespan: 0,
        }
    }

    /// Handles one event time, in the order the module doc lays out;
    /// `false` once no event is left.
    fn step(&mut self) -> bool {
        self.evaluate_epoch();
        for ni in 0..self.nodes.len() {
            self.dispatch_node(ni);
        }
        let Some(now) = self.next_event() else { return false };
        self.now = now;
        // Completions first (a core freed at `now` can serve an arrival
        // at `now`), in global core order.
        for c in &mut self.cores {
            if c.busy && c.busy_until <= now {
                c.busy = false;
            }
        }
        // Then retries whose backoff expired, in (ready, id) order —
        // ahead of arrivals at the same cycle, since they have been
        // waiting longer end-to-end. A retry re-enters the queue of the
        // node that first accepted it.
        if let Some(rt) = self.chaos.as_mut() {
            while rt.ready.first_key_value().is_some_and(|(&(t, _), _)| t <= now) {
                let (_, job) = rt.ready.pop_first().expect("non-empty retry queue");
                self.nodes[job.node].enqueue(job);
            }
        }
        // Then arrivals at `now`, in stream order, each routed by the
        // scheduler.
        while let Some(a) = self.pending.filter(|a| a.cycle <= now) {
            self.pending = self.source.next_arrival();
            self.fingerprint.observe(a);
            emit(self.sink, a.cycle, Track::Cluster, EventKind::Arrival { function: a.function });
            if let Some(rt) = self.chaos.as_mut() {
                rt.stats.submitted += 1;
            }
            let ni = self.route(a);
            let node = &mut self.nodes[ni];
            node.usage.submitted += 1;
            node.enqueue(Job {
                arrival: a,
                node: ni,
                id: self.submitted,
                attempt: 1,
                enqueued_at: a.cycle,
                queue_accum: 0,
                lost_cycles: 0,
            });
            self.submitted += 1;
        }
        true
    }

    /// Epoch evaluation: when the clock has crossed the policy's next
    /// epoch boundary, snapshot the cluster gauges, let the policy
    /// actuate, and mirror each decision onto the controller trace
    /// track. Gated twice (enabled, then epoch_due) so the static path
    /// never assembles gauges.
    fn evaluate_epoch(&mut self) {
        if !(self.policy.enabled() && self.policy.epoch_due(self.now)) {
            return;
        }
        let stores = || self.nodes.iter().map(|n| &n.store);
        let gauges = ClusterGauges {
            busy_cores: self.cores.iter().filter(|c| c.busy).count(),
            total_cores: self.cores.len(),
            cores_per_node: self.sim.cfg.cores,
            queued: self.nodes.iter().map(|n| n.queue.len()).sum(),
            footprint_bytes: stores().map(|s| s.footprint_bytes() as u64).sum(),
            capacity_bytes: self.sim.cfg.store.capacity_bytes as u64 * self.nodes.len() as u64,
            insertions: stores().map(|s| s.stats().insertions).sum(),
            evictions: stores().map(|s| s.stats().evictions).sum(),
            keepalive_enabled: self.keepalive.enabled(),
        };
        for d in self.policy.on_epoch(self.now, &gauges) {
            let kind = EventKind::Decision {
                rule: d.rule,
                epoch: d.epoch,
                function: d.function,
                value: d.value,
                observed: d.observed,
                threshold: d.threshold,
            };
            emit(self.sink, d.at, Track::Controller, kind);
        }
    }

    /// Dispatches node `ni`'s FIFO queue onto its free cores, lowest
    /// core index first (under chaos, a core inside a crash window
    /// cannot accept work even when idle). An enabled policy may cap the
    /// schedulable cores per node; high-index cores past the cap finish
    /// in-flight work but accept no new dispatches.
    fn dispatch_node(&mut self, ni: usize) {
        let cores_per_node = self.sim.cfg.cores;
        let base = ni * cores_per_node;
        let active = if self.policy.enabled() {
            self.policy.active_cores(cores_per_node).clamp(1, cores_per_node)
        } else {
            cores_per_node
        };
        let now = self.now;
        while !self.nodes[ni].queue.is_empty() {
            let free = (base..base + active).find(|&g| {
                !self.cores[g].busy
                    && self.chaos.as_mut().is_none_or(|rt| !rt.state.core_down(g, now))
            });
            let Some(gci) = free else { break };
            let mut job = self.nodes[ni].queue.pop_front().expect("non-empty queue");
            job.queue_accum += now - job.enqueued_at;
            if let Some(rt) = self.chaos.as_mut() {
                let deadline = rt.retry.deadline_cycles;
                if deadline > 0 && now.saturating_sub(job.arrival.cycle) > deadline {
                    self.drop_job(&job, now, DropReason::Deadline);
                    continue;
                }
                if rt.state.dispatch_dropped(job.id, job.attempt) {
                    rt.stats.dispatch_drops += 1;
                    self.fail_attempt(job, now, 0);
                    continue;
                }
            }
            match self.dispatch(&job, gci) {
                Served::Done { completion } => {
                    self.makespan = self.makespan.max(completion);
                    let latency = completion - job.arrival.cycle;
                    self.fns[job.arrival.function as usize].latencies.push(latency);
                    self.nodes[ni].usage.completed += 1;
                    if let Some(rt) = self.chaos.as_mut() {
                        rt.stats.completed += 1;
                        if job.attempt > 1 {
                            rt.stats.retried_to_success += 1;
                        }
                    }
                }
                Served::Killed { at } => {
                    let rt = self.chaos.as_mut().expect("attempts are only killed under chaos");
                    rt.stats.crash_kills += 1;
                    self.fail_attempt(job, at, at - now);
                }
            }
        }
    }

    /// The next event time: the earliest completion (or crashed-core
    /// restart), backoff expiry, arrival — or, when a node has queued
    /// work waiting only on repairs, the earliest restart among that
    /// node's cores. `None` once nothing is left to happen.
    fn next_event(&mut self) -> Option<u64> {
        let (now, cores_per_node) = (self.now, self.sim.cfg.cores);
        let next_completion = self.cores.iter().filter(|c| c.busy).map(|c| c.busy_until).min();
        let next_retry = self.chaos.as_ref().and_then(|rt| rt.ready.keys().next().map(|&(t, _)| t));
        let next_arrival = self.pending.map(|a| a.cycle);
        let next_restart = self.chaos.as_mut().and_then(|rt| {
            (0..self.nodes.len())
                .filter(|&ni| !self.nodes[ni].queue.is_empty())
                .filter_map(|ni| {
                    let span = ni * cores_per_node..(ni + 1) * cores_per_node;
                    rt.state.earliest_restart_among(span, now)
                })
                .min()
        });
        [next_completion, next_retry, next_arrival, next_restart].into_iter().flatten().min()
    }

    /// Places an arrival on a node (a 1-node cluster routes to node 0
    /// untouched).
    fn route(&mut self, a: Arrival) -> usize {
        if self.nodes.len() == 1 {
            return 0;
        }
        let cores_per_node = self.sim.cfg.cores;
        let container = self.sim.functions[a.function as usize].container;
        let loads: Vec<NodeLoad> = (self.nodes.iter().enumerate())
            .map(|(n, node)| {
                let span = &self.cores[n * cores_per_node..(n + 1) * cores_per_node];
                let busy = span.iter().filter(|c| c.busy).count();
                NodeLoad {
                    busy_cores: busy,
                    queued: node.queue.len(),
                    free_cores: cores_per_node - busy,
                    holds_metadata: self.ignite_on && node.store.contains(container),
                }
            })
            .collect();
        let picked = self.sched.pick(&loads);
        let kind = EventKind::Routed { function: a.function, node: picked as u32 };
        emit(self.sink, a.cycle, Track::Cluster, kind);
        picked
    }

    /// Routes a failed attempt: bounded retry with deterministic
    /// backoff, or a reasoned drop (retries exhausted, or the backoff
    /// would land past the deadline). `elapsed` is how long the failed
    /// attempt held resources (0 for a dispatch drop).
    fn fail_attempt(&mut self, mut job: Job, fail_at: u64, elapsed: u64) {
        let rt = self.chaos.as_mut().expect("attempts only fail under chaos");
        rt.stats.attempts_failed += 1;
        if job.attempt >= rt.retry.max_attempts {
            self.drop_job(&job, fail_at, DropReason::RetriesExhausted);
            return;
        }
        let backoff = rt.retry.backoff_for(rt.state.plan().seed, job.id, job.attempt);
        let ready = fail_at.saturating_add(backoff);
        let deadline = rt.retry.deadline_cycles;
        if deadline > 0 && ready.saturating_sub(job.arrival.cycle) > deadline {
            self.drop_job(&job, fail_at, DropReason::Deadline);
            return;
        }
        rt.stats.backoff_cycles += backoff;
        let function = job.arrival.function;
        self.fns[function as usize].summary.retries += 1;
        let kind =
            EventKind::ChaosRetry { function, attempt: job.attempt, backoff_cycles: backoff };
        emit(self.sink, fail_at, Track::Chaos, kind);
        job.lost_cycles += elapsed + backoff;
        job.attempt += 1;
        job.enqueued_at = ready;
        rt.ready.insert((ready, job.id), job);
    }

    /// Terminal failure exit: the job leaves the system with a reason
    /// (the only alternative to completion under the conservation law).
    fn drop_job(&mut self, job: &Job, at: u64, reason: DropReason) {
        let stats = &mut self.chaos.as_mut().expect("jobs only drop under chaos").stats;
        match reason {
            DropReason::Deadline => stats.dropped_deadline += 1,
            DropReason::RetriesExhausted => stats.dropped_retries_exhausted += 1,
        }
        let function = job.arrival.function;
        self.fns[function as usize].summary.dropped += 1;
        self.nodes[job.node].usage.dropped += 1;
        emit(self.sink, at, Track::Chaos, EventKind::ChaosDrop { function, reason });
    }

    /// Store events land on the shared store track for single-node runs
    /// (byte-identical traces) and on a per-node track otherwise.
    fn store_track(&self, ni: usize) -> Track {
        if self.nodes.len() > 1 {
            Track::NodeStore(ni as u32)
        } else {
            Track::Store
        }
    }

    /// Runs one dispatch attempt of `job` on core `gci`; returns how it
    /// ended. The stages run in order: metadata staging, the engine run,
    /// the crash check and writeback commit, and latency attribution.
    ///
    /// Without chaos this is the pre-chaos dispatch verbatim: every
    /// chaos branch is behind `if let Some`, the job accumulators equal
    /// the original expressions, and the attempt always completes.
    fn dispatch(&mut self, job: &Job, gci: usize) -> Served {
        let function = job.arrival.function;
        let cold = self.cores[gci].touch(function as usize, self.sim.cfg.distance_saturation);
        // Queue time accumulated across attempts; without chaos this is
        // exactly `now - arrival`.
        let kind = EventKind::Dispatch { function, queue_cycles: job.queue_accum };
        emit(self.sink, self.now, Track::Core(gci as u32), kind);

        let mut att = self.stage_metadata(job, gci, cold);
        self.run_engine(job, gci, &mut att);
        if let Some(crash_t) = self.commit(job, gci, &mut att) {
            return Served::Killed { at: crash_t };
        }
        if self.sink.enabled() || self.policy.enabled() {
            self.attribute(job, gci, &att);
        }

        if let Some(rt) = self.chaos.as_mut() {
            rt.stats.retry_cycles += job.lost_cycles;
        }
        let core = &mut self.cores[gci];
        core.busy = true;
        core.busy_until = att.completion;
        core.usage.busy_cycles += att.service;
        core.usage.invocations += 1;
        let fstate = &mut self.fns[function as usize];
        fstate.service_cycles += att.service;
        fstate.queue_cycles += job.queue_accum;
        fstate.cold_sum += cold;
        let summary = &mut fstate.summary;
        // Temperature of this start, dslab-faas style: no usable replay
        // state at all is cold; replayed with zero interleaving distance
        // is warm; replayed but partially displaced is lukewarm.
        if !self.ignite_on || att.degrade.is_some() || !att.store_hit {
            summary.cold_starts += 1;
        } else if cold == 0.0 {
            summary.warm_starts += 1;
        } else {
            summary.lukewarm_starts += 1;
        }
        summary.min_service = summary.min_service.min(att.service);
        summary.result.merge(&att.res);
        Served::Done { completion: att.completion }
    }

    /// Stages the function's metadata region from the node store into
    /// the core's replay engine, charging the transfer. Under chaos,
    /// three gates can degrade this attempt to a cold run: an open
    /// circuit breaker (full record/replay bypass), a store
    /// unavailability window (no fetch at all), or a corrupt/lost region
    /// detected after the fetch (region evicted, breaker fed).
    fn stage_metadata(&mut self, job: &Job, gci: usize, cold: f64) -> Attempt {
        let (now, ni, function) = (self.now, job.node, job.arrival.function);
        let fi = function as usize;
        let f = &self.sim.functions[fi];
        // Policy replay admission: a denied function skips the store
        // fetch entirely (no miss counted, nothing to re-record) and runs
        // cold; its front-end stalls attribute to `cold_frontend`. With a
        // disabled policy this is constant-false and the fetch gate below
        // is `if ignite_on` exactly.
        let policy_bypass =
            self.policy.enabled() && self.ignite_on && !self.policy.replay_admitted(function);
        let mut att = Attempt { cold, policy_bypass, ..Attempt::default() };
        if !self.ignite_on || policy_bypass {
            return att;
        }
        if let Some(rt) = self.chaos.as_mut() {
            if !rt.breakers[fi].replay_allowed(now) {
                att.degrade = Some(DegradeReason::BreakerOpen);
                att.breaker_bypass = true;
            } else if rt.state.store_unavailable_on(ni, now) {
                att.degrade = Some(DegradeReason::StoreUnavailable);
            }
        }
        if att.degrade.is_some() {
            return att;
        }
        if self.keepalive.enabled() {
            self.keepalive.on_fetch(ni, f.container, now);
        }
        let store_track = self.store_track(ni);
        let Some(md) = self.nodes[ni].store.fetch(f.container).cloned() else {
            self.fns[fi].summary.metadata_misses += 1;
            emit(self.sink, now, store_track, EventKind::StoreMiss { container: f.container });
            return att;
        };
        att.store_hit = true;
        self.fns[fi].summary.metadata_hits += 1;
        att.md_cycles += self.sim.transfer_cycles(md.byte_len());
        let kind = EventKind::StoreHit { container: f.container, bytes: md.byte_len() as u64 };
        emit(self.sink, now, store_track, kind);
        // Chaos corruption draws on the fetched copy (seeded per
        // (container, invocation), like the codec fault model it
        // reuses). Stale-but-valid regions still install — replay
        // handles them; only undecodable or lost regions degrade.
        let installed: Option<Metadata> = match self.chaos.as_mut() {
            Some(rt) if rt.state.plan().store_fault.is_active() => {
                match rt.state.plan().store_fault.apply(&md, f.container, self.fns[fi].count) {
                    Ok(Some(faulted)) if faulted.validate().is_ok() => Some(faulted),
                    Ok(Some(_)) | Err(_) => {
                        att.degrade = Some(DegradeReason::Corrupt);
                        None
                    }
                    Ok(None) => {
                        att.degrade = Some(DegradeReason::Loss);
                        None
                    }
                }
            }
            _ => Some(md),
        };
        match installed {
            Some(md) => {
                let ignite = self.cores[gci].machine.ignite.as_mut().expect("ignite selected");
                ignite.install_metadata(f.container, md);
                if let Some(rt) = self.chaos.as_mut() {
                    let b = &mut rt.breakers[fi];
                    let closes = b.closes();
                    b.record_success();
                    if b.closes() > closes {
                        emit(self.sink, now, Track::Chaos, EventKind::BreakerClose { function });
                    }
                }
            }
            None => {
                let rt = self.chaos.as_mut().expect("faults only fire under chaos");
                // A region known bad must never be served again.
                if self.nodes[ni].store.remove(f.container).is_some() {
                    rt.stats.store_regions_dropped += 1;
                }
                let b = &mut rt.breakers[fi];
                let opens = b.opens();
                b.record_fault(now);
                if b.opens() > opens {
                    let kind =
                        EventKind::BreakerOpen { function, faults: rt.retry.breaker_threshold };
                    emit(self.sink, now, Track::Chaos, kind);
                }
            }
        }
        att
    }

    /// Runs the invocation on the core's persistent machine after a
    /// context switch, takes back the (merged) region the engine hands
    /// over for writeback, and applies any straggle window.
    fn run_engine(&mut self, job: &Job, gci: usize, att: &mut Attempt) {
        let now = self.now;
        let f = &self.sim.functions[job.arrival.function as usize];
        let track = Track::Core(gci as u32);
        let core = &mut self.cores[gci];
        core.machine.context_switch();
        emit(self.sink, now, track, EventKind::ContextSwitch);
        let bypass_ignite = att.breaker_bypass || att.policy_bypass;
        let ctx = InvocationCtx { data_cold_fraction: att.cold, bypass_ignite };
        // The engine portion of the dispatch starts after the metadata
        // fetch transfer on the cluster clock. Map machine-local cycles
        // onto the cluster clock: the machine clock (busy cycles only)
        // never exceeds cluster time.
        debug_assert!(core.machine.now <= now, "machine clock ahead of cluster clock");
        let ts_offset = (now + att.md_cycles).saturating_sub(core.machine.now);
        let fstate = &mut self.fns[job.arrival.function as usize];
        att.res = run_invocation_obs(
            &mut core.machine,
            f,
            fstate.count,
            ctx,
            self.sink,
            track,
            ts_offset,
        );
        fstate.count += 1;
        if self.ignite_on {
            let ignite = core.machine.ignite.as_mut().expect("ignite selected");
            att.taken = ignite.take_metadata(f.container);
        }
        // Straggler windows stretch the attempt's compute cycles; the
        // extra cycles are charged to the execution component so the
        // attribution tiling stays exact.
        att.exec_cycles = att.res.cycles;
        if let Some(rt) = self.chaos.as_mut() {
            let factor = rt.state.straggle_factor_milli(gci, now);
            if factor > 1000 {
                att.straggled = true;
                att.exec_cycles = ((u128::from(att.res.cycles) * u128::from(factor)) / 1000) as u64;
            }
        }
    }

    /// Sizes the writeback of the region the engine handed back, checks
    /// the attempt against the crash schedule, and — if it survived —
    /// commits the writeback to the node store. Returns the crash cycle
    /// of a killed attempt.
    fn commit(&mut self, job: &Job, gci: usize, att: &mut Attempt) -> Option<u64> {
        let (now, ni, function) = (self.now, job.node, job.arrival.function);
        let container = self.sim.functions[function as usize].container;
        // Size the writeback, but do not commit it yet: a crash that
        // kills this attempt must also kill its writeback.
        let mut wb: Option<Metadata> = None;
        let mut wb_cycles = 0u64;
        let mut wb_skipped = false;
        if let Some(md) = att.taken.take() {
            let wb_at = now + att.md_cycles + att.exec_cycles;
            if self.policy.enabled() && !self.policy.store_admitted(function, md.byte_len() as u64)
            {
                // Policy tightened store admission: the recording is
                // discarded, saving footprint and writeback bandwidth
                // (the next fetch misses and re-records).
            } else if self.chaos.as_mut().is_some_and(|rt| rt.state.store_unavailable_on(ni, wb_at))
            {
                // Unreachable store: the region is simply lost (the
                // next fetch misses and re-records).
                wb_skipped = true;
            } else {
                wb_cycles = self.sim.transfer_cycles(md.byte_len());
                wb = Some(md);
            }
        }
        att.service = att.exec_cycles + att.md_cycles + wb_cycles;
        let completion = now + att.service;
        att.completion = completion;

        // Crash check: a crash window opening while this attempt holds
        // the core kills it — no completion, no writeback, a fresh
        // (fully cold) machine, and the core held busy until repair.
        if let Some(rt) = self.chaos.as_mut() {
            let crash_t = if completion > now + 1 {
                rt.state.crash_in(gci, now + 1, completion - 1)
            } else {
                None
            };
            if let Some(crash_t) = crash_t {
                let restart = rt
                    .state
                    .core_restart_after(gci, crash_t)
                    .expect("crash window contains its own start");
                let core = gci as u32;
                emit(self.sink, crash_t, Track::Chaos, EventKind::CoreCrash { core });
                let kind = EventKind::CoreRestore { core, down_cycles: restart - crash_t };
                emit(self.sink, restart, Track::Chaos, kind);
                let core = &mut self.cores[gci];
                core.machine = Machine::new(&self.sim.uarch, &self.sim.cfg.fe);
                core.last_seq.clear();
                core.busy = true;
                core.busy_until = restart;
                // The core worked (was busy) until the crash; the repair
                // window is downtime, not utilization.
                core.usage.busy_cycles += crash_t - now;
                return Some(crash_t);
            }
        }

        // The attempt survived: commit the writeback.
        if wb_skipped {
            if let Some(rt) = self.chaos.as_mut() {
                rt.stats.writeback_skipped += 1;
            }
        }
        if let Some(md) = wb {
            let bytes = md.byte_len() as u64;
            att.md_cycles += wb_cycles;
            // Keep-alive protected regions are evicted only as a last
            // resort; with keep-alive off the closure is never true and
            // the insert is the plain insert, branch for branch.
            let keepalive = &self.keepalive;
            let outcome = self.nodes[ni]
                .store
                .insert_protected(container, md, &|c| keepalive.is_protected(ni, c, completion));
            if self.keepalive.enabled() && !outcome.rejected {
                let window = if self.policy.enabled() {
                    self.policy.keepalive_window(function)
                } else {
                    None
                };
                let fi = function as usize;
                self.keepalive.on_complete_with(ni, fi, container, completion, window);
            }
            if self.sink.enabled() {
                for (victim, victim_bytes) in outcome.evicted {
                    let kind =
                        EventKind::StoreEvict { container: victim, bytes: victim_bytes as u64 };
                    att.store_events.push(kind);
                }
                if outcome.rejected {
                    att.store_events.push(EventKind::StoreReject { container, bytes });
                }
            }
        }

        if let Some(rt) = self.chaos.as_mut() {
            if att.straggled {
                rt.stats.straggled += 1;
            }
            if let Some(reason) = att.degrade {
                self.fns[function as usize].summary.degraded += 1;
                match reason {
                    DegradeReason::StoreUnavailable => rt.stats.degraded_unavailable += 1,
                    DegradeReason::Corrupt => rt.stats.degraded_corrupt += 1,
                    DegradeReason::Loss => rt.stats.degraded_loss += 1,
                    DegradeReason::BreakerOpen => rt.stats.degraded_breaker += 1,
                }
                emit(self.sink, now, Track::Chaos, EventKind::Degraded { function, reason });
            }
        }
        None
    }

    /// Causal latency attribution. Latency decomposes exactly: `latency
    /// = queue + retry + md_cycles + exec_cycles`, and the engine's
    /// integer stall counters tile the compute cycles into front-end
    /// penalty vs steady-state execution (straggle inflation is charged
    /// to execution). Front-end stalls paid after a store miss are the
    /// re-record cost Ignite could not avoid; after a hit (with Ignite
    /// off, or with replay suppressed by policy) they are the residual
    /// cold-front-end penalty; when chaos degraded replay away they are
    /// the price of availability. The policy folds the same components
    /// it would see on the trace, so the controller can run over a
    /// [`NullSink`].
    fn attribute(&mut self, job: &Job, gci: usize, att: &Attempt) {
        let function = job.arrival.function;
        let (now, completion) = (self.now, att.completion);
        let frontend = att.res.front_end_stall_cycles();
        let execution = att.exec_cycles - frontend;
        let (cold_frontend, store_miss, degraded_cycles) = if att.degrade.is_some() {
            (0, 0, frontend)
        } else if self.ignite_on && !att.store_hit && !att.policy_bypass {
            (0, frontend, 0)
        } else {
            (frontend, 0, 0)
        };
        if self.sink.enabled() {
            // The writeback (and any evictions it forced) lands at
            // completion time; the span covers fetch + engine +
            // writeback.
            let store_track = self.store_track(job.node);
            for &kind in &att.store_events {
                emit(self.sink, completion, store_track, kind);
            }
            let track = Track::Core(gci as u32);
            let invocation = self.fns[function as usize].count - 1;
            self.sink.record(Event {
                ts: now,
                dur: att.service,
                track,
                kind: EventKind::Invocation { function, invocation },
            });
            let service_cycles = att.service;
            emit(self.sink, completion, track, EventKind::Complete { function, service_cycles });
            let kind = EventKind::Attribution {
                function,
                queue_cycles: job.queue_accum,
                retry_cycles: job.lost_cycles,
                dram_cycles: att.md_cycles,
                cold_frontend_cycles: cold_frontend,
                store_miss_cycles: store_miss,
                degraded_cycles,
                execution_cycles: execution,
                latency_cycles: completion - job.arrival.cycle,
            };
            emit(self.sink, completion, track, kind);
        }
        if self.policy.enabled() {
            self.policy.observe(&PolicySample {
                function,
                completion,
                latency_cycles: completion - job.arrival.cycle,
                queue_cycles: job.queue_accum,
                retry_cycles: job.lost_cycles,
                dram_cycles: att.md_cycles,
                cold_frontend_cycles: cold_frontend,
                store_miss_cycles: store_miss,
                degraded_cycles,
                execution_cycles: execution,
                store_hit: att.store_hit,
                replay_suppressed: att.policy_bypass,
            });
        }
    }

    /// Closes the run: keep-alive and controller accounting end at the
    /// makespan, and every ledger folds into the [`ClusterOutcome`].
    fn finish(mut self) -> ClusterOutcome {
        let makespan = self.makespan;
        let cores_per_node = self.sim.cfg.cores;
        self.keepalive.finish(makespan);
        let controller = if self.policy.enabled() { self.policy.finish(makespan) } else { None };

        // The cluster-wide latency distribution is the concatenation of
        // the per-function ones.
        let mut all_latencies: Vec<u64> =
            self.fns.iter().flat_map(|f| f.latencies.iter().copied()).collect();
        all_latencies.sort_unstable();
        let n = all_latencies.len();
        let latency_sum: u64 = all_latencies.iter().sum();
        let mut latency_histogram = vec![0u64; LATENCY_BUCKETS.len() + 1];
        for &l in &all_latencies {
            let i = LATENCY_BUCKETS.iter().position(|&b| l <= b).unwrap_or(LATENCY_BUCKETS.len());
            latency_histogram[i] += 1;
        }
        let keepalive = &self.keepalive;
        let functions = (self.fns.into_iter().enumerate())
            .map(|(fi, mut f)| {
                f.latencies.sort_unstable();
                let n = f.latencies.len() as f64;
                let mean = |sum: f64| if n == 0.0 { 0.0 } else { sum / n };
                let min_service = f.summary.min_service;
                FunctionSummary {
                    invocations: f.latencies.len() as u64,
                    p50_latency: percentile(&f.latencies, 50),
                    p95_latency: percentile(&f.latencies, 95),
                    p99_latency: percentile(&f.latencies, 99),
                    mean_service: mean(f.service_cycles as f64),
                    mean_queue: mean(f.queue_cycles as f64),
                    mean_cold_fraction: mean(f.cold_sum),
                    min_service: if min_service == u64::MAX { 0 } else { min_service },
                    wasted_keepalive_cycles: keepalive.wasted_for_function(fi),
                    ..f.summary
                }
            })
            .collect();
        let utilization = |busy: u64, cores: usize| {
            if makespan == 0 {
                0.0
            } else {
                busy as f64 / (makespan as f64 * cores as f64)
            }
        };
        let cores: Vec<CoreUsage> = (self.cores.iter())
            .map(|c| CoreUsage { utilization: utilization(c.usage.busy_cycles, 1), ..c.usage })
            .collect();
        let chaos = self.chaos.map(|mut rt| {
            for b in &rt.breakers {
                rt.stats.breaker_opens += b.opens();
                rt.stats.breaker_closes += b.closes();
            }
            debug_assert!(
                rt.stats.conserved(),
                "conservation violated: submitted {} != completed {} + dropped {}",
                rt.stats.submitted,
                rt.stats.completed,
                rt.stats.dropped_total()
            );
            rt.stats
        });
        // Per-node usage (cores are node-major, so each node's span is
        // contiguous) and the cluster-wide store aggregate.
        let nodes: Vec<NodeUsage> = (self.nodes.iter().enumerate())
            .map(|(ni, node)| {
                let span = &cores[ni * cores_per_node..(ni + 1) * cores_per_node];
                let busy: u64 = span.iter().map(|c| c.busy_cycles).sum();
                NodeUsage {
                    busy_cycles: busy,
                    utilization: utilization(busy, cores_per_node),
                    store: *node.store.stats(),
                    footprint_bytes: node.store.footprint_bytes(),
                    peak_footprint_bytes: node.store.peak_footprint_bytes(),
                    wasted_keepalive_cycles: keepalive.wasted_on_node(ni),
                    ..node.usage
                }
            })
            .collect();
        let mut store_total = StoreStats::default();
        for node in &self.nodes {
            let st = node.store.stats();
            store_total.hits += st.hits;
            store_total.misses += st.misses;
            store_total.insertions += st.insertions;
            store_total.evictions += st.evictions;
            store_total.rejected += st.rejected;
            store_total.bytes_read += st.bytes_read;
            store_total.bytes_written += st.bytes_written;
            store_total.bytes_evicted += st.bytes_evicted;
        }
        ClusterOutcome {
            invocations: n as u64,
            makespan,
            cores,
            nodes,
            functions,
            store: store_total,
            footprint_bytes: self.nodes.iter().map(|n| n.store.footprint_bytes()).sum(),
            peak_footprint_bytes: self.nodes.iter().map(|n| n.store.peak_footprint_bytes()).sum(),
            p50_latency: percentile(&all_latencies, 50),
            p95_latency: percentile(&all_latencies, 95),
            p99_latency: percentile(&all_latencies, 99),
            mean_latency: if n == 0 { 0.0 } else { latency_sum as f64 / n as f64 },
            latency_histogram,
            latency_sum,
            chaos,
            workload: self.fingerprint.finish(),
            controller,
        }
    }
}

/// Nearest-rank percentile of an already-sorted slice (0 for empty data).
///
/// `rank = max(1, ceil(n·p/100))`, clamped to `n` so an out-of-range `p`
/// (> 100) saturates at the maximum instead of indexing past the slice.
fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * u64::from(p)).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs the same cluster at several store capacities, sharded across
/// `threads` worker threads with per-point panic isolation (one diverging
/// point reports an error; the rest of the sweep completes).
///
/// The largest capacity runs first. If it never evicted or rejected a
/// region, every capacity at or above its largest per-node peak
/// footprint reuses that outcome: the store reads its capacity only in
/// the reject test (`len > cap`) and the eviction loop (`total + len >
/// cap`), and neither can fire below the peak the run actually reached,
/// so those runs are the same run. The sweep runs under
/// [`StaticPolicy`], which never reads the capacity gauge. The other
/// points fan out as usual; a [`PanicFailure`] carries the point's index
/// in `capacities`.
pub fn sweep_capacities(
    cfg: &ClusterConfig,
    capacities: &[usize],
    threads: usize,
) -> Vec<Result<ClusterOutcome, PanicFailure>> {
    let run_point = |i: usize| {
        let mut point = cfg.clone();
        point.store.capacity_bytes = capacities[i];
        ClusterSim::new(point).run()
    };
    let Some(top) = (0..capacities.len()).max_by_key(|&i| capacities[i]) else {
        return Vec::new();
    };
    let with_index = |i: usize, r: Result<ClusterOutcome, PanicFailure>| {
        r.map_err(|e| PanicFailure { index: i, ..e })
    };
    let top_result =
        with_index(top, fanout::run_indexed(1, 1, |_| run_point(top)).pop().expect("one job"));
    let reuse_from = match &top_result {
        Ok(out) if out.store.evictions == 0 && out.store.rejected == 0 => {
            out.nodes.iter().map(|n| n.peak_footprint_bytes).max()
        }
        _ => None,
    };
    let reused = |i: usize| i == top || reuse_from.is_some_and(|peak| capacities[i] >= peak);
    let rest: Vec<usize> = (0..capacities.len()).filter(|&i| !reused(i)).collect();
    let mut fanned = fanout::run_indexed(rest.len(), threads, |k| run_point(rest[k])).into_iter();
    (0..capacities.len())
        .map(|i| {
            if reused(i) {
                top_result.clone()
            } else {
                with_index(i, fanned.next().expect("one result per remaining point"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_workloads::arrival::TraceSource;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            arrival: ArrivalConfig { horizon_cycles: 1_500_000, ..ArrivalConfig::default() },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn serves_every_arrival() {
        let sim = ClusterSim::new(quick_cfg());
        let trace = {
            let mut a = sim.config().arrival;
            a.functions = 20;
            a.generate()
        };
        let out = sim.run_source(&mut TraceSource::new(&trace));
        assert_eq!(out.invocations as usize, trace.arrivals.len());
        assert!(out.makespan > 0);
        let per_core: u64 = out.cores.iter().map(|c| c.invocations).sum();
        assert_eq!(per_core, out.invocations);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = ClusterSim::new(quick_cfg());
        assert_eq!(sim.run(), sim.run());
    }

    #[test]
    fn store_hits_accumulate_under_repeat_traffic() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert!(out.store.hits > 0, "hot functions must find their metadata");
        assert!(out.store.hit_rate() > 0.3, "hit rate {}", out.store.hit_rate());
        assert!(out.peak_footprint_bytes > 0);
        assert!(out.peak_footprint_bytes <= quick_cfg().store.capacity_bytes);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert!(out.p50_latency <= out.p95_latency);
        assert!(out.p95_latency <= out.p99_latency);
        for f in out.functions.iter().filter(|f| f.invocations > 0) {
            assert!(f.p50_latency <= f.p99_latency, "{}", f.abbr);
            assert!(f.mean_service > 0.0, "{}", f.abbr);
        }
    }

    #[test]
    fn popular_functions_run_data_warmer() {
        let out = ClusterSim::new(quick_cfg()).run();
        let head = &out.functions[0];
        let tail =
            out.functions.iter().rev().find(|f| f.invocations > 1).expect("some tail traffic");
        assert!(head.invocations > tail.invocations, "Zipf head gets more traffic");
        assert!(
            head.mean_cold_fraction < tail.mean_cold_fraction,
            "head cold {} must be below tail cold {}",
            head.mean_cold_fraction,
            tail.mean_cold_fraction
        );
    }

    #[test]
    fn no_store_traffic_without_ignite() {
        let mut cfg = quick_cfg();
        cfg.fe = FrontEndConfig::nl();
        let out = ClusterSim::new(cfg).run();
        assert_eq!(out.store.hits + out.store.misses, 0);
        assert_eq!(out.footprint_bytes, 0);
    }

    #[test]
    fn capacity_sweep_is_monotone_in_hit_rate() {
        let cfg = quick_cfg();
        let caps = [2 * 1024, 8 * 1024, 256 * 1024];
        let outs: Vec<ClusterOutcome> =
            sweep_capacities(&cfg, &caps, 3).into_iter().map(|r| r.expect("no panics")).collect();
        for w in outs.windows(2) {
            assert!(
                w[0].store.hit_rate() <= w[1].store.hit_rate(),
                "hit rate must not drop with capacity: {} vs {}",
                w[0].store.hit_rate(),
                w[1].store.hit_rate()
            );
        }
        assert!(
            outs[0].store.hit_rate() < outs[2].store.hit_rate(),
            "a 2 KiB store must hit less than a 256 KiB one"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 50), 50);
        assert_eq!(percentile(&data, 95), 95);
        assert_eq!(percentile(&data, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn percentile_out_of_range_saturates_at_max() {
        // Regression: p > 100 used to compute rank > n and index past the
        // slice; it must saturate at the maximum instead.
        assert_eq!(percentile(&[1, 2, 3], 101), 3);
        assert_eq!(percentile(&[5], 400), 5);
    }

    /// Brute-force nearest-rank reference: the smallest value `v` in the
    /// data such that at least `p`% of the data is ≤ `v`.
    fn percentile_reference(sorted: &[u64], p: u32) -> u64 {
        for &v in sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= v).count() as u64;
            if at_or_below * 100 >= u64::from(p) * sorted.len() as u64 {
                return v;
            }
        }
        *sorted.last().expect("non-empty")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn percentile_matches_brute_force(
            mut data in proptest::collection::vec(0u64..1_000_000, 1..200),
            p in 0u32..101,
        ) {
            data.sort_unstable();
            proptest::prop_assert_eq!(percentile(&data, p), percentile_reference(&data, p));
        }

        #[test]
        fn percentiles_are_monotone_and_max_bounded(
            mut data in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            data.sort_unstable();
            let max = *data.last().expect("non-empty");
            let curve: Vec<u64> = (0..=100).map(|p| percentile(&data, p)).collect();
            for w in curve.windows(2) {
                proptest::prop_assert!(w[0] <= w[1], "percentile curve must be monotone");
            }
            proptest::prop_assert_eq!(curve[100], max);
            if data.len() < 100 {
                // With fewer than 100 samples the 99th percentile is the max.
                proptest::prop_assert_eq!(percentile(&data, 99), max);
            }
        }
    }

    #[test]
    fn watchdog_abandons_are_not_double_counted() {
        let mut cfg = quick_cfg();
        let ig = cfg.fe.select.ignite.as_mut().expect("default cluster fe selects ignite");
        // Replay that can never catch up: no throttle headroom and a hair
        // trigger watchdog, so stalled replays abandon instead of pending.
        ig.replay.throttle_threshold = 0;
        ig.replay.watchdog_stall_steps = 4;
        ig.replay.prefetch_instructions = false;
        let out = ClusterSim::new(cfg).run();
        let total = out.total_result();
        assert!(total.replay.watchdog_abandons > 0, "config must force abandons");
        assert!(total.replay.entries_dropped > 0, "abandoned entries count as dropped");
        // Regression: entries the watchdog dropped used to also be
        // reported as unfinished, counting the same invocation twice.
        assert_eq!(total.replay_unfinished, 0);
    }

    #[test]
    fn observed_run_matches_plain_run_and_covers_transitions() {
        let sim = ClusterSim::new(quick_cfg());
        let plain = sim.run();
        let mut buf = ignite_obs::TraceBuffer::new(1 << 20);
        let mut source = sim.config().arrival.source();
        let observed = sim.run_source_policy_obs(&mut source, &mut buf, &mut StaticPolicy);
        assert_eq!(plain, observed, "observation must not perturb the simulation");
        assert_eq!(buf.dropped(), 0, "buffer sized for the whole run");
        let names: std::collections::BTreeSet<&str> = buf.iter().map(|e| e.kind.name()).collect();
        for required in
            ["arrival", "dispatch", "context-switch", "invocation", "complete", "store-hit"]
        {
            assert!(names.contains(required), "missing {required} events; have {names:?}");
        }
    }

    #[test]
    fn latency_histogram_accounts_every_invocation() {
        let out = ClusterSim::new(quick_cfg()).run();
        assert_eq!(out.latency_histogram.len(), LATENCY_BUCKETS.len() + 1);
        assert_eq!(out.latency_histogram.iter().sum::<u64>(), out.invocations);
        assert!(out.latency_sum >= out.invocations * out.p50_latency / 2);
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(chaos_cfg(7).validate().is_ok());
        let msg = |cfg: &ClusterConfig| cfg.validate().unwrap_err().to_string();
        let bad = ClusterConfig { cores: 0, ..ClusterConfig::default() };
        assert!(msg(&bad).contains("cores"));
        let bad = ClusterConfig { dram_bytes_per_cycle: f64::NAN, ..ClusterConfig::default() };
        assert!(msg(&bad).contains("dram_bytes_per_cycle"));
        let bad = ClusterConfig {
            retry: RetryPolicy { max_attempts: 0, ..RetryPolicy::default() },
            ..ClusterConfig::default()
        };
        assert!(msg(&bad).contains("max_attempts"));
        let mut bad = chaos_cfg(7);
        bad.chaos.as_mut().unwrap().crash_repair_cycles = 0;
        assert!(msg(&bad).contains("crash"));
        let mut bad = chaos_cfg(7);
        bad.chaos.as_mut().unwrap().straggle_factor_milli = 500;
        assert!(msg(&bad).contains("straggle_factor_milli"));
    }

    #[test]
    fn topology_validation_rejects_bad_shapes_with_typed_errors() {
        let bad = ClusterConfig {
            topology: Topology { nodes: 0, ..Topology::default() },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroNodes);
        let bad = ClusterConfig {
            topology: Topology {
                scheduler: SchedulerKind::Random { choices: 0 },
                ..Topology::default()
            },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroSchedulerChoices);
        let bad = ClusterConfig {
            topology: Topology {
                keepalive: KeepAliveKind::Fixed { window_cycles: 0 },
                ..Topology::default()
            },
            ..ClusterConfig::default()
        };
        assert_eq!(bad.validate().unwrap_err(), ConfigError::ZeroKeepAliveWindow);
        let ok = ClusterConfig {
            topology: Topology {
                nodes: 3,
                scheduler: SchedulerKind::Affinity,
                keepalive: KeepAliveKind::Hybrid { default_window_cycles: 50_000 },
            },
            ..ClusterConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    fn chaos_cfg(chaos_seed: u64) -> ClusterConfig {
        ClusterConfig { chaos: Some(ChaosPlan::default_preset().seeded(chaos_seed)), ..quick_cfg() }
    }

    #[test]
    fn chaos_run_conserves_every_submission() {
        let out = ClusterSim::new(chaos_cfg(7)).run();
        let ch = out.chaos.as_ref().expect("chaos stats present");
        assert!(ch.conserved(), "conservation violated: {ch:?}");
        assert_eq!(ch.completed, out.invocations);
        assert!(ch.submitted > 0);
        // The preset is violent enough to exercise the machinery.
        assert!(ch.attempts_failed > 0, "no failures injected: {ch:?}");
        assert!(ch.degraded_total() > 0, "no degradations: {ch:?}");
        // Per-function drop counters agree with the ledger.
        let dropped: u64 = out.functions.iter().map(|f| f.dropped).sum();
        assert_eq!(dropped, ch.dropped_total());
    }

    #[test]
    fn chaos_is_deterministic() {
        assert_eq!(ClusterSim::new(chaos_cfg(7)).run(), ClusterSim::new(chaos_cfg(7)).run());
    }

    #[test]
    fn inert_chaos_plan_matches_chaos_off_exactly() {
        // An all-zero plan schedules no failures; the chaos machinery
        // must then be arithmetically invisible.
        let inert = ClusterConfig { chaos: Some(ChaosPlan::none()), ..quick_cfg() };
        let with = ClusterSim::new(inert).run();
        let without = ClusterSim::new(quick_cfg()).run();
        assert_eq!(with.invocations, without.invocations);
        assert_eq!(with.makespan, without.makespan);
        assert_eq!(with.latency_sum, without.latency_sum);
        assert_eq!(with.latency_histogram, without.latency_histogram);
        assert_eq!(with.cores, without.cores);
        assert_eq!(with.functions, without.functions);
        let ch = with.chaos.expect("inert plan still reports chaos stats");
        assert_eq!(ch.submitted, ch.completed);
        assert_eq!(ch.attempts_failed, 0);
        assert_eq!(ch.degraded_total(), 0);
        assert_eq!(ch.retry_cycles, 0);
    }

    #[test]
    fn chaos_seed_does_not_perturb_the_arrival_stream() {
        // Satellite: the arrival process is driven by `--seed` alone;
        // re-seeding chaos must replay the identical offered load.
        let base = ClusterSim::new(chaos_cfg(7)).run();
        let other = ClusterSim::new(chaos_cfg(1234)).run();
        let a = base.chaos.as_ref().unwrap();
        let b = other.chaos.as_ref().unwrap();
        assert_eq!(a.submitted, b.submitted, "arrival count must not depend on the chaos seed");
        // And the failure schedules genuinely differ.
        assert_ne!(
            (a.attempts_failed, a.retry_cycles, a.degraded_total()),
            (b.attempts_failed, b.retry_cycles, b.degraded_total()),
            "distinct chaos seeds should inject distinct failures"
        );
    }

    #[test]
    fn chaos_latencies_tile_into_components() {
        // Replaying the chaos run under a scope analyzer must satisfy
        // the 7-component attribution invariant for every completion.
        let sim = ClusterSim::new(chaos_cfg(7));
        let mut buf = ignite_obs::TraceBuffer::new(1 << 21);
        let mut source = sim.config().arrival.source();
        let out = sim.run_source_policy_obs(&mut source, &mut buf, &mut StaticPolicy);
        let mut attributed = 0u64;
        let mut latency_sum = 0u64;
        for e in buf.iter() {
            if let EventKind::Attribution {
                queue_cycles,
                retry_cycles,
                dram_cycles,
                cold_frontend_cycles,
                store_miss_cycles,
                degraded_cycles,
                execution_cycles,
                latency_cycles,
                ..
            } = e.kind
            {
                assert_eq!(
                    queue_cycles
                        + retry_cycles
                        + dram_cycles
                        + cold_frontend_cycles
                        + store_miss_cycles
                        + degraded_cycles
                        + execution_cycles,
                    latency_cycles,
                    "components must tile the latency"
                );
                attributed += 1;
                latency_sum += latency_cycles;
            }
        }
        assert_eq!(attributed, out.invocations, "every completion is attributed");
        assert_eq!(latency_sum, out.latency_sum, "attributed latency totals the sim's sum");
    }
}
