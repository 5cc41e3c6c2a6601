//! Multi-process cluster orchestration (the `rads-node` binary's engine
//! room).
//!
//! A **real** RADS cluster is N OS processes, one machine each: every
//! process builds the deterministic dataset stand-in and its partitioning
//! locally (the generators are seed-stable across processes, so no graph
//! data crosses the wire), starts a [`SocketNode`] — listener, daemon,
//! pipelined peer connections — and runs the unmodified
//! [`rads_core::engine::run_machine`] over the socket transport.
//!
//! Roles:
//!
//! * [`run_worker`] — one non-coordinator machine: run the engine, deliver
//!   a result frame to machine 0, wait for the shutdown order, drain.
//! * [`run_coordinator`] — machine 0: allocate the cluster's addresses,
//!   spawn the workers (the same binary, `worker` mode), run its own
//!   engine, collect every worker's result with a **hard deadline** (a
//!   deadlocked or crashed worker fails the run fast instead of hanging
//!   forever), broadcast shutdown and aggregate a [`ClusterSummary`].
//!
//! The summary is also emitted as single-line JSON so scripts, the
//! `sockets` experiment and the CI smoke test can parse one process's
//! stdout ([`ClusterSummary::parse_json`]) and compare the cluster's counts
//! against the in-process transport. `wire_bytes` in the summary are *real
//! framed bytes* summed over every process — the ground truth the simulated
//! cost model is judged against.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use rads_core::daemon::{new_group_queue, RadsDaemon};
use rads_core::engine::{run_machine, EngineConfig, MachineOutput, RoundDriver};
use rads_core::memory::MemoryBudget;
use rads_datasets::{generate, DatasetKind, Scale};
use rads_graph::queries;
use rads_partition::{LabelPropagationPartitioner, PartitionedGraph, Partitioner};
use rads_plan::{best_plan, PlannerConfig};
use rads_runtime::transport::scratch_socket_dir;
use rads_runtime::{
    ConfigError, Daemon, MachineContext, NetworkStats, NodeMonitor, PeerAddr, QueryId,
    SocketListener, SocketNode, TrafficSnapshot, TransportKind,
};

use crate::json::Json;

/// Environment variable selecting what the coordinator does when a worker
/// process dies mid-run (see [`FaultPolicy`]): `fail-fast` (default) or
/// `recover`.
pub const FAULT_POLICY_ENV: &str = "RADS_FAULT_POLICY";

/// What the coordinator does when it confirms a worker process died before
/// delivering its result.
///
/// Death is confirmed by `Child::try_wait` — the OS reaping the worker is
/// authoritative. Stale heartbeats (a worker that stopped streaming its
/// periodic metrics frames) are only *counted* (`heartbeats_missed` in the
/// [`ClusterSummary`]), never acted on: a slow machine is not a dead one,
/// and the run's hard deadline already bounds a genuine wedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Kill the surviving workers and fail the run with a structured
    /// per-machine report naming the dead machine(s). Nothing hangs: the
    /// report is produced within the run's deadline.
    #[default]
    FailFast,
    /// Kill the surviving workers and deterministically recompute the run
    /// on an in-process cluster, yielding the same embedding counts the
    /// socket cluster would have produced (the generators and the engine
    /// are seed-stable; `socket_transports_reproduce_the_simulator_counts`
    /// pins the equivalence). The *whole* run is recomputed, not just the
    /// dead machine's region groups: checkR/shareR work stealing means a
    /// lost machine's groups may already be half-processed elsewhere, so
    /// per-machine shares are not individually reconstructible — but the
    /// cluster total is deterministic, and that is what recovery restores.
    Recover,
}

impl FaultPolicy {
    /// CLI / summary name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::FailFast => "fail-fast",
            FaultPolicy::Recover => "recover",
        }
    }

    /// The policy selected by `RADS_FAULT_POLICY` (default
    /// [`FaultPolicy::FailFast`]); a typed error for anything else.
    pub fn from_env() -> Result<FaultPolicy, ConfigError> {
        Self::from_env_value(std::env::var(FAULT_POLICY_ENV).ok().as_deref())
    }

    /// [`FaultPolicy::from_env`] over an explicit value (`None` = unset),
    /// unit-testable without mutating the environment.
    pub fn from_env_value(raw: Option<&str>) -> Result<FaultPolicy, ConfigError> {
        match raw {
            None => Ok(FaultPolicy::default()),
            Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "fail-fast" | "failfast" => Ok(FaultPolicy::FailFast),
                "recover" => Ok(FaultPolicy::Recover),
                _ => Err(ConfigError {
                    var: FAULT_POLICY_ENV,
                    value: raw.to_string(),
                    expected: "\"fail-fast\" or \"recover\"",
                }),
            },
        }
    }
}

/// Everything every process of one cluster run must agree on. The
/// coordinator forwards these to its workers verbatim as CLI flags
/// ([`worker_args`]), which is what guarantees all N processes build the
/// same graph, partitioning and plan.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of machines (= processes).
    pub machines: usize,
    /// Which dataset stand-in to generate.
    pub dataset: DatasetKind,
    /// Generator scale.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Query name (see [`rads_graph::queries::query_by_name`]).
    pub query: String,
    /// Intra-machine worker threads per process.
    pub workers: usize,
    /// Per-group memory budget override (`None` = `RADS_MEMORY_BUDGET` /
    /// default).
    pub budget: Option<usize>,
    /// Round driver (serial oracle vs async scatter/harvest). Forwarded to
    /// workers so all processes run the same engine.
    pub driver: RoundDriver,
    /// Vertices per `fetchV` request (`None` = the engine default). The
    /// `overlap` experiment lowers this so a round spans many frames even
    /// on a same-host socket; results are identical for any value.
    pub fetch_chunk: Option<usize>,
    /// Cache fetched foreign vertices across rounds and groups (the
    /// engine's `enable_cache`, default true). `--no-cache` reproduces the
    /// paper's communication-heavy regime; counts are identical either way
    /// (the `ablation_cache` axis).
    pub cache: bool,
    /// Write this process's Chrome trace-event JSON here when the run ends
    /// (implies tracing on). On the coordinator this is the *base* path:
    /// machine 0 writes it verbatim, worker `K` writes `<path>.m<K>` (the
    /// coordinator derives the per-worker path in [`worker_args`]).
    pub trace_out: Option<PathBuf>,
    /// Write this process's metrics snapshot here when the run ends
    /// (implies metrics on): JSON at the path itself, Prometheus text at
    /// `<path>.prom`. Same per-machine `.m<K>` derivation as `trace_out`.
    pub metrics_out: Option<PathBuf>,
    /// Coordinator-side: what to do when a worker process dies mid-run.
    /// Not forwarded to workers — only the coordinator acts on it.
    pub fault_policy: FaultPolicy,
    /// Chaos mode: the coordinator SIGKILLs the highest-id worker this many
    /// milliseconds after spawning it — a real mid-run process loss, used by
    /// the chaos suite to prove the fault policy. Coordinator-side only.
    pub chaos_kill_ms: Option<u64>,
}

/// The artifact path of machine `machine` under base path `base`: machine 0
/// (the coordinator) owns the base path itself, worker `K` gets `base.mK`.
pub fn machine_artifact(base: &Path, machine: usize) -> PathBuf {
    if machine == 0 {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}.m{machine}", base.display()))
    }
}

/// Sibling path of a metrics JSON artifact holding the Prometheus text
/// rendering.
pub fn prometheus_sibling(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.prom", path.display()))
}

/// Writes this process's observability artifacts (trace JSON, metrics
/// JSON with its Prometheus text sibling) to the paths in `spec`, if any.
/// Called once per process after its node finished shutting down, so
/// daemon-thread trace buffers have flushed.
fn write_observability_artifacts(spec: &ClusterSpec) -> Result<(), String> {
    if let Some(path) = &spec.trace_out {
        std::fs::write(path, rads_obs::drain_chrome_trace())
            .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
    }
    if let Some(path) = &spec.metrics_out {
        let snapshot = rads_obs::Registry::global().snapshot();
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("cannot write metrics to {}: {e}", path.display()))?;
        let prom = prometheus_sibling(path);
        std::fs::write(&prom, snapshot.to_prometheus())
            .map_err(|e| format!("cannot write metrics to {}: {e}", prom.display()))?;
    }
    Ok(())
}

/// Parses a dataset stand-in by its paper name (case-insensitive).
pub fn dataset_by_name(name: &str) -> Option<DatasetKind> {
    DatasetKind::all().into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
}

/// Builds the deterministic partitioned graph every process of the cluster
/// agrees on (same generator, same seed, same partitioner as
/// [`crate::build_cluster`]).
pub fn build_partitioned(spec: &ClusterSpec) -> Arc<PartitionedGraph> {
    let dataset = generate(spec.dataset, Scale(spec.scale), spec.seed);
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, spec.machines);
    Arc::new(PartitionedGraph::build(&dataset.graph, partitioning))
}

/// The engine configuration of a node process — mirrors
/// `RadsConfig::default()` so a multi-process run is comparable 1:1 with
/// `run_rads` on an in-process cluster.
fn engine_config(spec: &ClusterSpec) -> EngineConfig {
    let budget = match spec.budget {
        Some(bytes) => MemoryBudget::from_bytes(bytes),
        None => MemoryBudget::default_from_env(),
    };
    engine_config_with(spec, budget)
}

/// [`engine_config`] with the memory budget supplied by the caller instead
/// of resolved from `spec.budget` / the environment. The serving mode uses
/// this: a resident daemon resolves its budget **once at startup** and then
/// derives every query's config from that snapshot (plus the per-query
/// client override), so flipping `RADS_MEMORY_BUDGET` under a running
/// server cannot change behaviour mid-stream.
pub(crate) fn engine_config_with(spec: &ClusterSpec, budget: MemoryBudget) -> EngineConfig {
    let default_chunk = EngineConfig::default().fetch_chunk_vertices;
    EngineConfig {
        budget,
        seed: 42,
        workers: spec.workers,
        driver: spec.driver,
        fetch_chunk_vertices: spec.fetch_chunk.unwrap_or(default_chunk),
        enable_cache: spec.cache,
        ..EngineConfig::default()
    }
}

/// Interval at which a worker streams its metrics snapshot to the
/// coordinator over the wire (a [`rads_runtime::wire::FrameKind::Metrics`]
/// frame; newer frames replace older on the receiving side).
const METRICS_TICK: Duration = Duration::from_millis(250);

/// Starts this machine's node and runs its engine to completion. Returns
/// the node (still serving its daemon — the cluster may not be done), the
/// engine output and this process's real wire traffic.
///
/// While the engine runs, a non-coordinator machine with metrics enabled
/// streams its registry snapshot to machine 0 every [`METRICS_TICK`], so
/// the coordinator holds a recent view of the whole cluster at any moment.
fn run_node_engine(
    spec: &ClusterSpec,
    machine: usize,
    addrs: Vec<PeerAddr>,
    monitor_tx: Option<std::sync::mpsc::Sender<NodeMonitor>>,
) -> Result<(SocketNode, MachineOutput, Arc<NetworkStats>, Duration), String> {
    rads_obs::set_trace_process(machine as u64);
    let pattern = queries::query_by_name(&spec.query)
        .ok_or_else(|| format!("unknown query {:?}", spec.query))?;
    // Bind the listener *before* the expensive graph build: peers whose
    // generation finishes first connect immediately (their requests queue in
    // the accept backlog), instead of burning their bounded connect-retry
    // window against a process that is still generating the dataset.
    let listener = SocketListener::bind(&addrs[machine])
        .map_err(|e| format!("machine {machine}: cannot bind {}: {e}", addrs[machine]))?;
    let partitioned = build_partitioned(spec);
    let stats = Arc::new(NetworkStats::new(spec.machines));
    let queue = new_group_queue();
    let daemon: Arc<dyn Daemon> =
        Arc::new(RadsDaemon::new(partitioned.clone(), machine, queue.clone()));
    let node = SocketNode::start_with_listener(machine, addrs, listener, daemon.clone(), stats.clone());
    if let Some(tx) = monitor_tx {
        // hand the coordinator's main thread a liveness view before the
        // engine starts (the node itself stays on this thread)
        let _ = tx.send(node.monitor());
    }
    let ctx = MachineContext::assemble(partitioned, node.transport(), daemon);
    let plan = best_plan(&pattern, &PlannerConfig { rho: 1.0 });
    let config = engine_config(spec);
    let ticker = if machine != 0 && rads_obs::metrics_enabled() {
        let publisher = node.metrics_publisher(0);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("rads-metrics-ticker".to_string())
            .spawn(move || {
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(METRICS_TICK);
                    if flag.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    publisher.send(&rads_obs::Registry::global().snapshot().encode());
                }
            })
            .expect("spawn metrics ticker thread");
        Some((stop, handle))
    } else {
        None
    };
    let start = Instant::now();
    let output = run_machine(&ctx, &pattern, &plan, &config, queue);
    let elapsed = start.elapsed();
    if let Some((stop, handle)) = ticker {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    Ok((node, output, stats, elapsed))
}

// --------------------------------------------------------------------------
// result payload (worker → coordinator), little-endian fixed layout
// --------------------------------------------------------------------------

/// What one machine reports into the cluster summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Machine id.
    pub machine: usize,
    /// Embeddings this machine found.
    pub embeddings: u64,
    /// Embeddings found in the SM-E phase.
    pub sme_embeddings: u64,
    /// Real framed bytes this process put on the wire.
    pub wire_bytes: u64,
    /// Remote requests this process sent.
    pub wire_messages: u64,
    /// EWMA (µs) of the first-response wait after scattering a round's
    /// *demand* `fetchV` chunks — ≈ one link round trip, and the signal the
    /// prefetcher consults ([`rads_core::engine::EngineStats::fetch_wait_micros`]).
    pub fetch_wait_demand_us: u64,
    /// EWMA (µs) of the wait to harvest one *prefetched* chunk — the
    /// residual stall the group-ahead pipeline failed to hide.
    pub fetch_wait_prefetch_us: u64,
    /// This machine's engine wall-clock in milliseconds.
    pub elapsed_ms: f64,
    /// RPCs this machine transparently re-issued after a transient
    /// transport failure (the retry/backoff layer in
    /// [`rads_runtime::MachineContext`]).
    pub rpc_retries: u64,
    /// Dead peer connections this machine replaced with a fresh dial.
    pub reconnects: u64,
}

pub(crate) const RESULT_PAYLOAD_BYTES: usize = 76;

pub(crate) fn encode_result(m: &MachineSummary) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RESULT_PAYLOAD_BYTES);
    buf.extend_from_slice(&(m.machine as u32).to_le_bytes());
    buf.extend_from_slice(&m.embeddings.to_le_bytes());
    buf.extend_from_slice(&m.sme_embeddings.to_le_bytes());
    buf.extend_from_slice(&m.wire_bytes.to_le_bytes());
    buf.extend_from_slice(&m.wire_messages.to_le_bytes());
    buf.extend_from_slice(&m.fetch_wait_demand_us.to_le_bytes());
    buf.extend_from_slice(&m.fetch_wait_prefetch_us.to_le_bytes());
    buf.extend_from_slice(&m.elapsed_ms.to_bits().to_le_bytes());
    buf.extend_from_slice(&m.rpc_retries.to_le_bytes());
    buf.extend_from_slice(&m.reconnects.to_le_bytes());
    buf
}

pub(crate) fn decode_result(buf: &[u8]) -> Result<MachineSummary, String> {
    if buf.len() != RESULT_PAYLOAD_BYTES {
        return Err(format!(
            "result payload of {} bytes, expected {RESULT_PAYLOAD_BYTES}",
            buf.len()
        ));
    }
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes"));
    Ok(MachineSummary {
        machine: u32_at(0) as usize,
        embeddings: u64_at(4),
        sme_embeddings: u64_at(12),
        wire_bytes: u64_at(20),
        wire_messages: u64_at(28),
        fetch_wait_demand_us: u64_at(36),
        fetch_wait_prefetch_us: u64_at(44),
        elapsed_ms: f64::from_bits(u64_at(52)),
        rpc_retries: u64_at(60),
        reconnects: u64_at(68),
    })
}

pub(crate) fn machine_summary(
    machine: usize,
    output: &MachineOutput,
    wire: &TrafficSnapshot,
    elapsed: Duration,
    reconnects: u64,
) -> MachineSummary {
    MachineSummary {
        machine,
        embeddings: output.count,
        sme_embeddings: output.stats.sme_embeddings,
        wire_bytes: wire.total_bytes,
        wire_messages: wire.messages,
        fetch_wait_demand_us: output.stats.fetch_wait_micros,
        fetch_wait_prefetch_us: output.stats.prefetch_wait_micros,
        elapsed_ms: elapsed.as_secs_f64() * 1000.0,
        rpc_retries: output.stats.rpc_retries,
        reconnects,
    }
}

// --------------------------------------------------------------------------
// worker
// --------------------------------------------------------------------------

/// Runs one worker process: engine → result frame to the coordinator →
/// wait for the shutdown order → drain. `addrs[machine]` is this worker's
/// listen address.
pub fn run_worker(
    spec: &ClusterSpec,
    machine: usize,
    addrs: Vec<PeerAddr>,
    timeout: Duration,
) -> Result<(), String> {
    if machine == 0 || machine >= spec.machines {
        return Err(format!("worker machine id {machine} out of range 1..{}", spec.machines));
    }
    let (node, output, stats, elapsed) = run_node_engine(spec, machine, addrs, None)?;
    let wire = stats.snapshot();
    rads_core::obs::publish_traffic(&wire);
    // The final metrics frame travels on the same ordered connection as the
    // result frame below, so once the coordinator has collected every
    // result, its metrics map holds every machine's *final* snapshot.
    if rads_obs::metrics_enabled() {
        node.metrics_publisher(0).send(&rads_obs::Registry::global().snapshot().encode());
    }
    let summary = machine_summary(machine, &output, &wire, elapsed, node.reconnects());
    node.send_result(0, QueryId::SOLO, &encode_result(&summary))
        .map_err(|e| format!("machine {machine}: cannot deliver result to coordinator: {e}"))?;
    let ordered = node.wait_shutdown(timeout);
    node.finish_shutdown();
    write_observability_artifacts(spec)?;
    if ordered {
        Ok(())
    } else {
        Err(format!(
            "machine {machine}: no shutdown order within {}s of finishing",
            timeout.as_secs()
        ))
    }
}

// --------------------------------------------------------------------------
// coordinator
// --------------------------------------------------------------------------

/// The aggregated outcome of one multi-process cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Query name.
    pub query: String,
    /// Dataset name.
    pub dataset: String,
    /// Transport name (`uds` / `tcp`).
    pub transport: String,
    /// Number of machine processes.
    pub machines: usize,
    /// Intra-machine worker threads per process.
    pub workers: usize,
    /// Embeddings over all machines.
    pub total_embeddings: u64,
    /// Real framed bytes over all processes.
    pub wire_bytes: u64,
    /// Remote requests over all processes.
    pub wire_messages: u64,
    /// Coordinator wall-clock (spawn to all-results) in milliseconds.
    pub elapsed_ms: f64,
    /// Cluster-wide scalar metrics, sorted by name: every worker's final
    /// registry snapshot (streamed over the wire as metrics frames) absorbed
    /// into the coordinator's own — counters summed, gauges maxed,
    /// histograms reduced to `<name>_sum` / `<name>_count`. Empty when
    /// metrics are disabled.
    pub metrics: Vec<(String, u64)>,
    /// The fault policy the coordinator ran under
    /// ([`FaultPolicy::name`]).
    pub fault_policy: String,
    /// RPCs transparently re-issued after transient transport failures,
    /// over all machines.
    pub rpc_retries: u64,
    /// Dead peer connections replaced with a fresh dial, over all machines.
    pub reconnects: u64,
    /// Heartbeat intervals in which a worker that had already been heard
    /// from went silent (no metrics/result frame for more than the
    /// staleness threshold), summed over workers. Advisory only — worker
    /// death is confirmed by process exit, never inferred from this.
    pub heartbeats_missed: u64,
    /// Machines whose results were recomputed in-process after their worker
    /// process died ([`FaultPolicy::Recover`]). Empty on a clean run.
    pub machines_recovered: Vec<usize>,
    /// Region groups belonging to the recovered machines that the
    /// deterministic rebuild recomputed. Zero on a clean run.
    pub groups_recovered: u64,
    /// Per-machine breakdown, indexed by machine id.
    pub per_machine: Vec<MachineSummary>,
}

/// Flattens a snapshot into sorted `(name, value)` scalar pairs: counters
/// and gauges verbatim, histograms as `<name>_sum` / `<name>_count`.
fn scalar_metrics(snapshot: &rads_obs::MetricsSnapshot) -> Vec<(String, u64)> {
    let mut pairs = Vec::with_capacity(snapshot.entries.len());
    for entry in &snapshot.entries {
        match &entry.value {
            rads_obs::MetricValue::Counter(value) | rads_obs::MetricValue::Gauge(value) => {
                pairs.push((entry.name.clone(), *value));
            }
            rads_obs::MetricValue::Histogram { count, sum, .. } => {
                pairs.push((format!("{}_count", entry.name), *count));
                pairs.push((format!("{}_sum", entry.name), *sum));
            }
        }
    }
    pairs.sort();
    pairs
}

impl ClusterSummary {
    /// Renders the summary as one line of JSON (the coordinator's stdout
    /// contract).
    pub fn to_json(&self) -> String {
        let per_machine: Vec<String> = self
            .per_machine
            .iter()
            .map(|m| {
                format!(
                    concat!(
                        "{{\"machine\":{},\"embeddings\":{},\"sme_embeddings\":{},",
                        "\"wire_bytes\":{},\"wire_messages\":{},",
                        "\"fetch_wait_demand_us\":{},\"fetch_wait_prefetch_us\":{},",
                        "\"elapsed_ms\":{:.3},\"rpc_retries\":{},\"reconnects\":{}}}"
                    ),
                    m.machine,
                    m.embeddings,
                    m.sme_embeddings,
                    m.wire_bytes,
                    m.wire_messages,
                    m.fetch_wait_demand_us,
                    m.fetch_wait_prefetch_us,
                    m.elapsed_ms,
                    m.rpc_retries,
                    m.reconnects,
                )
            })
            .collect();
        let metrics: Vec<String> =
            self.metrics.iter().map(|(name, value)| format!("\"{name}\":{value}")).collect();
        let machines_recovered: Vec<String> =
            self.machines_recovered.iter().map(|m| m.to_string()).collect();
        format!(
            concat!(
                "{{\"query\":\"{}\",\"dataset\":\"{}\",\"transport\":\"{}\",",
                "\"machines\":{},\"workers\":{},\"total_embeddings\":{},",
                "\"wire_bytes\":{},\"wire_messages\":{},\"elapsed_ms\":{:.3},",
                "\"fault_policy\":\"{}\",\"resilience\":{{",
                "\"rpc_retries\":{},\"reconnects\":{},\"heartbeats_missed\":{},",
                "\"machines_recovered\":[{}],\"groups_recovered\":{}}},",
                "\"metrics\":{{{}}},\"per_machine\":[{}]}}"
            ),
            self.query,
            self.dataset,
            self.transport,
            self.machines,
            self.workers,
            self.total_embeddings,
            self.wire_bytes,
            self.wire_messages,
            self.elapsed_ms,
            self.fault_policy,
            self.rpc_retries,
            self.reconnects,
            self.heartbeats_missed,
            machines_recovered.join(","),
            self.groups_recovered,
            metrics.join(","),
            per_machine.join(","),
        )
    }

    /// Parses a summary back from coordinator output: the last line that
    /// parses as a JSON object wins (diagnostics may precede it).
    pub fn parse_json(output: &str) -> Result<ClusterSummary, String> {
        let line = output
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .ok_or("no JSON object line in coordinator output")?;
        let v = Json::parse(line.trim())?;
        let str_field = |k: &str| {
            v.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let u64_field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing {k}"));
        let mut per_machine = Vec::new();
        for row in v.get("per_machine").and_then(Json::as_array).ok_or("missing per_machine")? {
            let m = |k: &str| row.get(k).and_then(Json::as_u64).ok_or(format!("missing per_machine {k}"));
            per_machine.push(MachineSummary {
                machine: m("machine")? as usize,
                embeddings: m("embeddings")?,
                sme_embeddings: m("sme_embeddings")?,
                wire_bytes: m("wire_bytes")?,
                wire_messages: m("wire_messages")?,
                fetch_wait_demand_us: m("fetch_wait_demand_us")?,
                fetch_wait_prefetch_us: m("fetch_wait_prefetch_us")?,
                elapsed_ms: row
                    .get("elapsed_ms")
                    .and_then(Json::as_f64)
                    .ok_or("missing per_machine elapsed_ms")?,
                // absent in pre-resilience producers
                rpc_retries: m("rpc_retries").unwrap_or(0),
                reconnects: m("reconnects").unwrap_or(0),
            });
        }
        // tolerate a missing metrics object (older producers / disabled)
        let mut metrics = Vec::new();
        if let Some(members) = v.get("metrics").and_then(Json::as_object) {
            for (name, value) in members {
                let value =
                    value.as_u64().ok_or(format!("non-integer metrics value for {name}"))?;
                metrics.push((name.clone(), value));
            }
        }
        // tolerate a missing resilience object (pre-resilience producers)
        let resilience = v.get("resilience");
        let res_u64 = |k: &str| {
            resilience.and_then(|r| r.get(k)).and_then(Json::as_u64).unwrap_or(0)
        };
        let machines_recovered = resilience
            .and_then(|r| r.get("machines_recovered"))
            .and_then(Json::as_array)
            .map(|rows| rows.iter().filter_map(Json::as_u64).map(|m| m as usize).collect())
            .unwrap_or_default();
        Ok(ClusterSummary {
            query: str_field("query")?,
            dataset: str_field("dataset")?,
            transport: str_field("transport")?,
            machines: u64_field("machines")? as usize,
            workers: u64_field("workers")? as usize,
            total_embeddings: u64_field("total_embeddings")?,
            wire_bytes: u64_field("wire_bytes")?,
            wire_messages: u64_field("wire_messages")?,
            elapsed_ms: v.get("elapsed_ms").and_then(Json::as_f64).ok_or("missing elapsed_ms")?,
            metrics,
            fault_policy: v
                .get("fault_policy")
                .and_then(Json::as_str)
                .unwrap_or(FaultPolicy::FailFast.name())
                .to_string(),
            rpc_retries: res_u64("rpc_retries"),
            reconnects: res_u64("reconnects"),
            heartbeats_missed: res_u64("heartbeats_missed"),
            machines_recovered,
            groups_recovered: res_u64("groups_recovered"),
            per_machine,
        })
    }
}

/// Allocates one listen address per machine: fresh Unix socket paths, or
/// free loopback TCP ports (probed by binding port 0 and releasing — a
/// worker landing on a just-taken port fails its bind loudly rather than
/// hanging).
pub fn allocate_addrs(kind: TransportKind, machines: usize) -> Result<Vec<PeerAddr>, String> {
    match kind.effective() {
        TransportKind::Uds => {
            let dir = scratch_socket_dir();
            Ok((0..machines).map(|m| PeerAddr::Uds(dir.join(format!("m{m}.sock")))).collect())
        }
        TransportKind::Tcp => {
            let listeners: Vec<std::net::TcpListener> = (0..machines)
                .map(|_| {
                    std::net::TcpListener::bind("127.0.0.1:0")
                        .map_err(|e| format!("cannot probe a free port: {e}"))
                })
                .collect::<Result<_, _>>()?;
            listeners
                .iter()
                .map(|l| {
                    l.local_addr()
                        .map(|a| PeerAddr::Tcp(a.to_string()))
                        .map_err(|e| format!("cannot read probed port: {e}"))
                })
                .collect()
        }
        TransportKind::InProcess => {
            Err("a multi-process cluster needs a socket transport (uds or tcp)".to_string())
        }
    }
}

/// The `worker`-mode argument vector for machine `machine` of `spec` — the
/// single place the coordinator→worker CLI contract lives.
pub fn worker_args(
    spec: &ClusterSpec,
    machine: usize,
    addrs: &[PeerAddr],
    timeout: Duration,
) -> Vec<String> {
    let addr_list =
        addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let mut args = vec![
        "worker".to_string(),
        "--machine".to_string(),
        machine.to_string(),
        "--machines".to_string(),
        spec.machines.to_string(),
        "--addrs".to_string(),
        addr_list,
        "--dataset".to_string(),
        spec.dataset.name().to_string(),
        "--scale".to_string(),
        format!("{}", spec.scale),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--query".to_string(),
        spec.query.clone(),
        "--workers".to_string(),
        spec.workers.to_string(),
        "--driver".to_string(),
        spec.driver.name().to_string(),
        "--timeout-secs".to_string(),
        timeout.as_secs().max(1).to_string(),
    ];
    if let Some(budget) = spec.budget {
        args.push("--budget".to_string());
        args.push(budget.to_string());
    }
    if let Some(chunk) = spec.fetch_chunk {
        args.push("--fetch-chunk".to_string());
        args.push(chunk.to_string());
    }
    if !spec.cache {
        args.push("--no-cache".to_string());
    }
    if let Some(base) = &spec.trace_out {
        args.push("--trace-out".to_string());
        args.push(machine_artifact(base, machine).display().to_string());
    }
    if let Some(base) = &spec.metrics_out {
        args.push("--metrics-out".to_string());
        args.push(machine_artifact(base, machine).display().to_string());
    }
    args
}

fn kill_children(children: &mut [(usize, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// A worker that has been heard from (its heartbeat carrier is the periodic
/// metrics stream, [`METRICS_TICK`]) counts missed heartbeats once it has
/// been silent this long. Advisory accounting only — never a death verdict.
const HEARTBEAT_STALE: Duration = Duration::from_millis(1000);

/// The coordinator's per-poll watchdog over its worker processes: confirms
/// deaths via `try_wait` (authoritative — the OS reaped the process), fires
/// the chaos kill when due, and keeps the advisory missed-heartbeat
/// account from the node's heartbeat map.
struct ClusterWatch {
    children: Arc<StdMutex<Vec<(usize, Child)>>>,
    monitor_rx: std::sync::mpsc::Receiver<NodeMonitor>,
    monitor: Option<NodeMonitor>,
    chaos_at: Option<Instant>,
    /// Highest missed-heartbeat count observed per machine (staleness is
    /// measured against the machine's *latest* frame, so a recovered stream
    /// resets the instantaneous count; the max preserves the episode).
    missed: HashMap<usize, u64>,
    /// Workers confirmed dead with a non-success exit status, in discovery
    /// order: `(machine, status)`.
    dead: Vec<(usize, String)>,
}

impl ClusterWatch {
    fn new(
        children: Arc<StdMutex<Vec<(usize, Child)>>>,
        monitor_rx: std::sync::mpsc::Receiver<NodeMonitor>,
        chaos_at: Option<Instant>,
    ) -> ClusterWatch {
        ClusterWatch { children, monitor_rx, monitor: None, chaos_at, missed: HashMap::new(), dead: Vec::new() }
    }

    /// One poll tick. Returns true if any worker is now confirmed dead.
    fn poll(&mut self) -> bool {
        if self.monitor.is_none() {
            self.monitor = self.monitor_rx.try_recv().ok();
        }
        if let Some(at) = self.chaos_at {
            if Instant::now() >= at {
                self.chaos_at = None;
                // SIGKILL the highest-id worker: a real, unannounced process
                // loss in the middle of the run
                if let Some((_, child)) =
                    self.children.lock().expect("children lock").last_mut()
                {
                    let _ = child.kill();
                }
            }
        }
        if rads_obs::metrics_enabled() {
            if let Some(monitor) = &self.monitor {
                for (machine, last) in monitor.heartbeats() {
                    let silent = last.elapsed();
                    if silent > HEARTBEAT_STALE {
                        let now_missed = 1 + (silent - HEARTBEAT_STALE).as_millis() as u64
                            / METRICS_TICK.as_millis() as u64;
                        let entry = self.missed.entry(machine).or_insert(0);
                        *entry = (*entry).max(now_missed);
                    }
                }
            }
        }
        for (machine, child) in self.children.lock().expect("children lock").iter_mut() {
            if self.dead.iter().any(|(m, _)| m == machine) {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    self.dead.push((*machine, status.to_string()));
                }
            }
        }
        !self.dead.is_empty()
    }

    fn heartbeats_missed(&self) -> u64 {
        self.missed.values().sum()
    }
}

/// One-line JSON report of a worker-loss event: which policy was in force
/// and which machines died with what status. This is the "structured
/// per-machine error report" of the fail-fast policy — embedded in the
/// `Err` string so callers (and the chaos suite) can parse it.
fn fault_report(spec: &ClusterSpec, dead: &[(usize, String)]) -> String {
    let dead_json: Vec<String> = dead
        .iter()
        .map(|(machine, status)| format!("{{\"machine\":{machine},\"status\":\"{status}\"}}"))
        .collect();
    format!(
        "{{\"fault\":\"worker-loss\",\"policy\":\"{}\",\"machines\":{},\"dead\":[{}]}}",
        spec.fault_policy.name(),
        spec.machines,
        dead_json.join(","),
    )
}

/// The [`FaultPolicy::Recover`] path: after confirmed worker loss, rebuild
/// the run deterministically on an in-process cluster (same generators,
/// same partitioning, same engine — see the policy's doc for why the whole
/// run is recomputed rather than only the dead machine's region groups) and
/// synthesize the summary the socket cluster would have produced. Embedding
/// counts are bit-identical to a clean run; the wire columns are zero
/// because the rebuild never touches a socket.
fn recover_in_process(
    spec: &ClusterSpec,
    kind: TransportKind,
    dead: &[(usize, String)],
    heartbeats_missed: u64,
    start: Instant,
) -> Result<ClusterSummary, String> {
    use rads_core::{run_rads, RadsConfig};
    let pattern = queries::query_by_name(&spec.query)
        .ok_or_else(|| format!("unknown query {:?}", spec.query))?;
    let partitioned = build_partitioned(spec);
    let cluster = rads_runtime::Cluster::with_transport(partitioned, TransportKind::InProcess);
    let econf = engine_config(spec);
    let config = RadsConfig {
        memory_budget: econf.budget,
        workers: spec.workers,
        round_driver: spec.driver,
        fetch_chunk_vertices: econf.fetch_chunk_vertices,
        enable_cache: spec.cache,
        ..RadsConfig::default()
    };
    let rebuild_start = Instant::now();
    let outcome = run_rads(&cluster, &pattern, &config);
    let rebuild_ms = rebuild_start.elapsed().as_secs_f64() * 1000.0;
    let machines_recovered: Vec<usize> = dead.iter().map(|(m, _)| *m).collect();
    let groups_recovered: u64 = machines_recovered
        .iter()
        .map(|&m| outcome.per_machine[m].stats.groups_created as u64)
        .sum();
    if rads_obs::metrics_enabled() {
        let registry = rads_obs::Registry::global();
        registry.counter("rads_heartbeats_missed_total").add(heartbeats_missed);
        registry.counter("rads_region_groups_recovered_total").add(groups_recovered);
    }
    let per_machine: Vec<MachineSummary> = outcome
        .per_machine
        .iter()
        .enumerate()
        .map(|(machine, report)| MachineSummary {
            machine,
            embeddings: report.count,
            sme_embeddings: report.stats.sme_embeddings,
            wire_bytes: 0,
            wire_messages: 0,
            fetch_wait_demand_us: report.stats.fetch_wait_micros,
            fetch_wait_prefetch_us: report.stats.prefetch_wait_micros,
            elapsed_ms: rebuild_ms,
            rpc_retries: report.stats.rpc_retries,
            reconnects: 0,
        })
        .collect();
    let metrics = if rads_obs::metrics_enabled() {
        scalar_metrics(&rads_obs::Registry::global().snapshot())
    } else {
        Vec::new()
    };
    Ok(ClusterSummary {
        query: spec.query.clone(),
        dataset: spec.dataset.name().to_string(),
        transport: kind.name().to_string(),
        machines: spec.machines,
        workers: spec.workers,
        total_embeddings: outcome.total_embeddings,
        wire_bytes: 0,
        wire_messages: 0,
        elapsed_ms: start.elapsed().as_secs_f64() * 1000.0,
        metrics,
        fault_policy: spec.fault_policy.name().to_string(),
        rpc_retries: per_machine.iter().map(|m| m.rpc_retries).sum(),
        reconnects: 0,
        heartbeats_missed,
        machines_recovered,
        groups_recovered,
        per_machine,
    })
}

/// Runs a whole multi-process cluster: spawns `spec.machines - 1` workers
/// (the `node_binary` in `worker` mode), acts as machine 0, and enforces
/// `timeout` as a hard deadline on the whole run — every phase fails with
/// a clean `Err` (workers killed, scratch sockets removed), never a hang.
/// Machine 0's engine runs on a helper thread polled by the main thread,
/// so the deadline also covers the enumeration itself: a worker that
/// stays alive but wedges mid-request blocks the engine in a recv with no
/// timeout. On that path the unjoinable engine thread is abandoned — both
/// real callers (`rads-node`, `experiments`) exit shortly after the `Err`,
/// so nothing outlives it in practice.
pub fn run_coordinator(
    spec: &ClusterSpec,
    kind: TransportKind,
    node_binary: &Path,
    timeout: Duration,
) -> Result<ClusterSummary, String> {
    let kind = kind.effective();
    if spec.machines == 0 {
        return Err("a cluster needs at least one machine".to_string());
    }
    let addrs = allocate_addrs(kind, spec.machines)?;
    let children: Arc<StdMutex<Vec<(usize, Child)>>> = Arc::new(StdMutex::new(Vec::new()));
    for machine in 1..spec.machines {
        let child = Command::new(node_binary)
            .args(worker_args(spec, machine, &addrs, timeout))
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {machine} ({}): {e}", node_binary.display()))?;
        children.lock().expect("children lock").push((machine, child));
    }

    let start = Instant::now();
    let deadline = start + timeout;
    // Machine 0's engine runs on a watched thread so the deadline also
    // covers the enumeration itself: a worker that stays alive but wedges
    // mid-request blocks the engine in a recv with no timeout, out of
    // reach of any return path. On deadline the engine thread is abandoned
    // (it is unjoinable by construction — both real callers exit shortly
    // after the Err) and the workers are killed.
    let (monitor_tx, monitor_rx) = std::sync::mpsc::channel();
    let mut watch = ClusterWatch::new(
        children.clone(),
        monitor_rx,
        spec.chaos_kill_ms.map(|ms| start + Duration::from_millis(ms)),
    );
    let engine_rx = {
        let (tx, rx) = std::sync::mpsc::channel();
        let spec = spec.clone();
        let engine_addrs = addrs.clone();
        std::thread::Builder::new()
            .name("rads-coordinator-engine".to_string())
            .spawn(move || {
                let _ = tx.send(run_node_engine(&spec, 0, engine_addrs, Some(monitor_tx)));
            })
            .expect("spawn coordinator engine thread");
        rx
    };
    // Dispatches a confirmed worker loss per the spec's fault policy:
    // fail-fast kills the survivors and surfaces the structured report;
    // recover kills the survivors (their partial results are unusable — the
    // rebuild is all-machine) and recomputes in-process. Either way the
    // coordinator's own engine thread is abandoned: it may be blocked on,
    // or panicking over, a connection to a machine that no longer exists.
    let on_worker_loss = |watch: &ClusterWatch| -> Result<ClusterSummary, String> {
        kill_children(&mut children.lock().expect("children lock"));
        match spec.fault_policy {
            FaultPolicy::FailFast => Err(format!(
                "fault policy fail-fast: worker machine(s) {:?} died mid-run; report: {}",
                watch.dead.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
                fault_report(spec, &watch.dead),
            )),
            FaultPolicy::Recover => {
                recover_in_process(spec, kind, &watch.dead, watch.heartbeats_missed(), start)
            }
        }
    };
    let result = (|| {
        // Wakes as soon as the engine reports; otherwise runs the
        // watchdog, chaos kill and deadline checks once per 100 ms tick.
        let engine_outcome = loop {
            match engine_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(outcome) => break outcome,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    // The engine thread panicking is itself a worker-loss
                    // symptom: its RPCs to the dead machine exhausted their
                    // retries. Confirm via the process table before blaming
                    // the engine.
                    watch.poll();
                    if !watch.dead.is_empty() {
                        return on_worker_loss(&watch);
                    }
                    return Err("coordinator engine thread died without reporting".to_string());
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if watch.poll() {
                        return on_worker_loss(&watch);
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "hard timeout: coordinator engine still running after {}s — \
                             treating the transport as deadlocked",
                            timeout.as_secs()
                        ));
                    }
                }
            }
        };
        let (node, output, stats, elapsed0) = engine_outcome?;
        let worker_ids: Vec<usize> = (1..spec.machines).collect();
        let mut payloads = Vec::new();
        if !worker_ids.is_empty() {
            loop {
                match node.wait_results(QueryId::SOLO, &worker_ids, Duration::from_millis(500)) {
                    Ok(p) => {
                        payloads = p;
                        break;
                    }
                    Err(missing) => {
                        if watch.poll() {
                            return on_worker_loss(&watch);
                        }
                        if Instant::now() >= deadline {
                            return Err(format!(
                                "hard timeout: no result from machines {missing:?} within {}s — \
                                 treating the transport as deadlocked",
                                timeout.as_secs()
                            ));
                        }
                    }
                }
            }
        }
        let wire0 = stats.snapshot();
        rads_core::obs::publish_traffic(&wire0);
        let heartbeats_missed = watch.heartbeats_missed();
        if rads_obs::metrics_enabled() {
            rads_obs::Registry::global()
                .counter("rads_heartbeats_missed_total")
                .add(heartbeats_missed);
        }
        // Every result frame followed its machine's final metrics frame on
        // the same ordered connection, so the metrics map now holds each
        // worker's final snapshot; absorb them into the coordinator's own.
        let mut metrics = Vec::new();
        if rads_obs::metrics_enabled() {
            let mut snapshot = rads_obs::Registry::global().snapshot();
            for (machine, payload) in node.take_metrics() {
                match rads_obs::MetricsSnapshot::decode(&payload) {
                    Ok(worker) => snapshot.absorb(&worker),
                    Err(e) => {
                        return Err(format!(
                            "machine {machine} sent an undecodable metrics frame: {e}"
                        ))
                    }
                }
            }
            metrics = scalar_metrics(&snapshot);
        }
        let reconnects0 = node.reconnects();
        node.broadcast_shutdown();
        node.finish_shutdown();
        write_observability_artifacts(spec)?;

        let mut per_machine =
            vec![machine_summary(0, &output, &wire0, elapsed0, reconnects0)];
        for payload in payloads {
            per_machine.push(decode_result(&payload)?);
        }
        per_machine.sort_by_key(|m| m.machine);
        Ok(ClusterSummary {
            query: spec.query.clone(),
            dataset: spec.dataset.name().to_string(),
            transport: kind.name().to_string(),
            machines: spec.machines,
            workers: spec.workers,
            total_embeddings: per_machine.iter().map(|m| m.embeddings).sum(),
            wire_bytes: per_machine.iter().map(|m| m.wire_bytes).sum(),
            wire_messages: per_machine.iter().map(|m| m.wire_messages).sum(),
            elapsed_ms: start.elapsed().as_secs_f64() * 1000.0,
            metrics,
            fault_policy: spec.fault_policy.name().to_string(),
            rpc_retries: per_machine.iter().map(|m| m.rpc_retries).sum(),
            reconnects: per_machine.iter().map(|m| m.reconnects).sum(),
            heartbeats_missed,
            machines_recovered: Vec::new(),
            groups_recovered: 0,
            per_machine,
        })
    })();

    let result = result.and_then(|summary| {
        // a recovered run already killed and reaped its workers
        if !summary.machines_recovered.is_empty() {
            return Ok(summary);
        }
        // reap the workers (they received the shutdown order)
        let reap_deadline = Instant::now() + Duration::from_secs(10);
        for (machine, child) in children.lock().expect("children lock").iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        return Err(format!("worker machine {machine} exited with {status}"))
                    }
                    Ok(None) if Instant::now() >= reap_deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("worker machine {machine} ignored shutdown"));
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(e) => return Err(format!("waiting for worker {machine}: {e}")),
                }
            }
        }
        Ok(summary)
    });
    if result.is_err() {
        kill_children(&mut children.lock().expect("children lock"));
    }
    // scratch socket files live under a per-run directory
    if let Some(PeerAddr::Uds(path)) = addrs.first() {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    result
}

/// The `sockets` experiment: the same queries on the same dataset stand-in
/// over (a) the in-process channel transport with its *simulated* byte
/// model and (b) a real multi-process UDS cluster (this process as
/// coordinator + `machines - 1` spawned `rads-node` workers) counting
/// *real framed bytes*. Panics if the two transports disagree on any
/// embedding count — the ground-truth gate of the socket runtime — and
/// returns a `RADS-sim` / `RADS-uds` record pair per query whose
/// `bytes_shipped` columns compare the cost model against the wire.
pub fn socket_vs_simulated(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
    node_binary: &Path,
    timeout: Duration,
) -> Result<Vec<crate::BenchRecord>, String> {
    use rads_core::{run_rads, RadsConfig};

    let dataset = generate(kind, scale, seed);
    // the baseline leg is pinned to the channel simulator: its whole point
    // is recording the *modelled* bytes, which RADS_TRANSPORT=uds would
    // silently turn into a second wire measurement
    let partitioning =
        LabelPropagationPartitioner::default().partition(&dataset.graph, machines);
    let cluster = rads_runtime::Cluster::with_transport(
        Arc::new(PartitionedGraph::build(&dataset.graph, partitioning)),
        TransportKind::InProcess,
    );
    let mut records = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).ok_or(format!("unknown query {qname:?}"))?;
        let config = RadsConfig::default();
        let workers = config.workers;
        let sim_start = Instant::now();
        let sim = run_rads(&cluster, &pattern, &config);
        let sim_ms = sim_start.elapsed().as_secs_f64() * 1000.0;

        let spec = ClusterSpec {
            machines,
            dataset: kind,
            scale: scale.0,
            seed,
            query: qname.to_string(),
            workers,
            budget: None,
            driver: config.round_driver,
            fetch_chunk: None,
            cache: true,
            trace_out: None,
            metrics_out: None,
            fault_policy: FaultPolicy::default(),
            chaos_kill_ms: None,
        };
        let summary = run_coordinator(&spec, TransportKind::Uds, node_binary, timeout)?;
        assert_eq!(
            summary.total_embeddings, sim.total_embeddings,
            "{qname}: the real-socket cluster deviates from the in-process transport"
        );
        // comparable to the sim row's run_rads wall clock: the slowest
        // machine's *engine* time — the coordinator's own elapsed_ms also
        // counts process spawning and N independent dataset generations
        let uds_ms = summary
            .per_machine
            .iter()
            .map(|m| m.elapsed_ms)
            .fold(0.0f64, f64::max);
        for (system, bytes, ms) in [
            ("RADS-sim", sim.traffic.total_bytes, sim_ms),
            ("RADS-uds", summary.wire_bytes, uds_ms),
        ] {
            records.push(crate::BenchRecord {
                experiment: "sockets".to_string(),
                dataset: dataset.profile.name.clone(),
                query: qname.to_string(),
                system: system.to_string(),
                machines,
                workers,
                embeddings: sim.total_embeddings,
                elapsed_ms: ms,
                embeddings_per_sec: crate::embeddings_per_sec(sim.total_embeddings, ms),
                bytes_shipped: bytes,
                peak_tracked_bytes: 0,
                budget_bytes: 0,
            });
        }
    }
    Ok(records)
}

/// `fetchV` chunk of the `overlap` experiment's UDS leg. A same-host
/// socket's round trip is two to three orders of magnitude below a real
/// network's, so at the production chunk size
/// ([`rads_core::engine::DEFAULT_FETCH_CHUNK_VERTICES`]) a round's handful
/// of frames costs microseconds and any driver difference drowns in
/// scheduling noise. Shrinking the chunk makes each round span as many
/// round trips as it would when adjacency volume, frame caps or MTU-sized
/// chunks force it to on a real wire — which is exactly the request
/// sequence whose latency the async driver exists to overlap. Both drivers
/// run with the same chunk, so the comparison stays apples to apples.
pub const OVERLAP_FETCH_CHUNK: usize = 16;

/// The round drivers the `overlap` experiment compares, in record order.
const OVERLAP_DRIVERS: [RoundDriver; 2] = [RoundDriver::Serial, RoundDriver::Async];

/// Floor on the per-driver rep count of [`overlap_sockets`]. Scheduling
/// noise on a single-host cluster is one-sided — contention only ever
/// *adds* time — so the minimum over reps converges to each driver's true
/// floor, and because the floors sit only a few percent apart when the
/// whole cluster time-slices one box, a handful of samples is not enough
/// for the minima to separate reliably. The runs are sub-second, so the
/// extra reps are cheap.
pub const OVERLAP_UDS_MIN_REPS: u32 = 9;

/// The `overlap` experiment's real-socket leg: each `(query, scale)` pair
/// on a real `machines`-process UDS cluster (this process as coordinator
/// plus spawned `rads-node` workers), once per round driver, with
/// message-rich rounds ([`OVERLAP_FETCH_CHUNK`]). No artificial latency is
/// injected — the async driver's edge here comes from keeping every peer
/// daemon busy at once instead of serving one fetchV chunk per round trip.
/// Each driver runs `reps` times (at least [`OVERLAP_UDS_MIN_REPS`]) — the
/// drivers *interleaved* rep by rep, so a drift in the host's available
/// CPU (this is a whole cluster time-slicing one box) hits both drivers
/// alike instead of whichever ran its block second — and the fastest
/// slowest-machine engine time is recorded (the coordinator's own wall
/// clock also counts process spawning and `machines` independent dataset
/// generations, which neither driver influences). Panics if the drivers
/// disagree on any embedding count.
///
/// Returns a `RADS-uds-serial` / `RADS-uds-async` record pair per query.
pub fn overlap_sockets(
    kind: DatasetKind,
    machines: usize,
    seed: u64,
    queries: &[(&str, Scale)],
    node_binary: &Path,
    timeout: Duration,
    reps: u32,
) -> Result<Vec<crate::BenchRecord>, String> {
    let workers = rads_core::RadsConfig::default().workers;
    let reps = reps.max(OVERLAP_UDS_MIN_REPS);
    let mut records = Vec::new();
    for &(qname, scale) in queries {
        let mut best: [Option<(f64, ClusterSummary)>; 2] = [None, None];
        for _ in 0..reps {
            for (slot, driver) in OVERLAP_DRIVERS.into_iter().enumerate() {
                let spec = ClusterSpec {
                    machines,
                    dataset: kind,
                    scale: scale.0,
                    seed,
                    query: qname.to_string(),
                    workers,
                    budget: None,
                    driver,
                    fetch_chunk: Some(OVERLAP_FETCH_CHUNK),
                    cache: true,
                    trace_out: None,
                    metrics_out: None,
                    fault_policy: FaultPolicy::default(),
                    chaos_kill_ms: None,
                };
                let summary = run_coordinator(&spec, TransportKind::Uds, node_binary, timeout)?;
                let ms = summary
                    .per_machine
                    .iter()
                    .map(|m| m.elapsed_ms)
                    .fold(0.0f64, f64::max);
                if best[slot].as_ref().is_none_or(|(b, _)| ms < *b) {
                    best[slot] = Some((ms, summary));
                }
            }
        }
        let mut expected = None;
        for (slot, driver) in OVERLAP_DRIVERS.into_iter().enumerate() {
            let (ms, summary) = best[slot].take().expect("reps >= 1");
            match expected {
                None => expected = Some(summary.total_embeddings),
                Some(e) => assert_eq!(
                    e, summary.total_embeddings,
                    "{qname}: the async driver changed the count on the UDS cluster"
                ),
            }
            records.push(crate::BenchRecord {
                experiment: "overlap".to_string(),
                dataset: summary.dataset.clone(),
                query: qname.to_string(),
                system: match driver {
                    RoundDriver::Serial => "RADS-uds-serial".to_string(),
                    RoundDriver::Async => "RADS-uds-async".to_string(),
                },
                machines,
                workers,
                embeddings: summary.total_embeddings,
                elapsed_ms: ms,
                embeddings_per_sec: crate::embeddings_per_sec(summary.total_embeddings, ms),
                bytes_shipped: summary.wire_bytes,
                peak_tracked_bytes: 0,
                budget_bytes: 0,
            });
        }
    }
    Ok(records)
}

/// The `rads-node` binary next to another binary of the same build (the
/// `experiments` CLI and the integration tests use this to find it).
pub fn sibling_node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("current_exe has no parent dir")?;
    // integration-test binaries live one level deeper (target/debug/deps)
    for candidate_dir in [dir, dir.parent().unwrap_or(dir)] {
        let candidate = candidate_dir.join(format!("rads-node{}", std::env::consts::EXE_SUFFIX));
        if candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "rads-node binary not found next to {} — build it first (cargo build --bin rads-node)",
        exe.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_payload_round_trips() {
        let summary = MachineSummary {
            machine: 3,
            embeddings: 12345,
            sme_embeddings: 77,
            wire_bytes: 987654321,
            wire_messages: 4321,
            fetch_wait_demand_us: 640,
            fetch_wait_prefetch_us: 12,
            elapsed_ms: 15.625,
            rpc_retries: 7,
            reconnects: 2,
        };
        let encoded = encode_result(&summary);
        assert_eq!(encoded.len(), RESULT_PAYLOAD_BYTES);
        assert_eq!(decode_result(&encoded), Ok(summary));
        assert!(decode_result(&[1, 2, 3]).is_err());
    }

    #[test]
    fn cluster_summary_json_round_trips() {
        let summary = ClusterSummary {
            query: "q5".into(),
            dataset: "LiveJournal".into(),
            transport: "uds".into(),
            machines: 4,
            workers: 2,
            total_embeddings: 99,
            wire_bytes: 1234,
            wire_messages: 56,
            elapsed_ms: 78.5,
            metrics: vec![
                ("rads_net_bytes_total".to_string(), 1234),
                ("rads_net_frame_bytes_count".to_string(), 56),
                ("rads_net_frame_bytes_sum".to_string(), 1100),
            ],
            fault_policy: "recover".to_string(),
            rpc_retries: 9,
            reconnects: 3,
            heartbeats_missed: 4,
            machines_recovered: vec![3],
            groups_recovered: 17,
            per_machine: vec![
                MachineSummary {
                    machine: 0,
                    embeddings: 40,
                    sme_embeddings: 11,
                    wire_bytes: 600,
                    wire_messages: 30,
                    fetch_wait_demand_us: 523,
                    fetch_wait_prefetch_us: 0,
                    elapsed_ms: 70.125,
                    rpc_retries: 6,
                    reconnects: 1,
                },
                MachineSummary {
                    machine: 1,
                    embeddings: 59,
                    sme_embeddings: 0,
                    wire_bytes: 634,
                    wire_messages: 26,
                    fetch_wait_demand_us: 77,
                    fetch_wait_prefetch_us: 3,
                    elapsed_ms: 69.0,
                    rpc_retries: 3,
                    reconnects: 2,
                },
            ],
        };
        let rendered = format!("spawned 3 workers\n{}\n", summary.to_json());
        assert_eq!(ClusterSummary::parse_json(&rendered), Ok(summary));
    }

    #[test]
    fn fault_policy_env_values_parse_or_error() {
        assert_eq!(FaultPolicy::from_env_value(None), Ok(FaultPolicy::FailFast));
        assert_eq!(FaultPolicy::from_env_value(Some("fail-fast")), Ok(FaultPolicy::FailFast));
        assert_eq!(FaultPolicy::from_env_value(Some("Recover")), Ok(FaultPolicy::Recover));
        let err = FaultPolicy::from_env_value(Some("retry-forever")).expect_err("typed error");
        assert_eq!(err.var, FAULT_POLICY_ENV);
        assert!(err.to_string().contains("retry-forever"), "{err}");
    }

    #[test]
    fn fault_report_names_every_dead_machine() {
        let spec = ClusterSpec {
            machines: 4,
            dataset: DatasetKind::Dblp,
            scale: 0.05,
            seed: 9,
            query: "q2".into(),
            workers: 1,
            budget: None,
            driver: RoundDriver::Async,
            fetch_chunk: None,
            cache: true,
            trace_out: None,
            metrics_out: None,
            fault_policy: FaultPolicy::FailFast,
            chaos_kill_ms: None,
        };
        let report =
            fault_report(&spec, &[(2, "signal: 9".to_string()), (3, "exit status: 1".to_string())]);
        assert!(report.contains("\"policy\":\"fail-fast\""), "{report}");
        assert!(report.contains("{\"machine\":2,\"status\":\"signal: 9\"}"), "{report}");
        assert!(report.contains("{\"machine\":3,\"status\":\"exit status: 1\"}"), "{report}");
        // the report is itself parseable JSON
        let parsed = Json::parse(&report).expect("report parses");
        assert_eq!(parsed.get("fault").and_then(Json::as_str), Some("worker-loss"));
    }

    #[test]
    fn dataset_names_resolve_case_insensitively() {
        assert_eq!(dataset_by_name("livejournal"), Some(DatasetKind::LiveJournal));
        assert_eq!(dataset_by_name("DBLP"), Some(DatasetKind::Dblp));
        assert_eq!(dataset_by_name("RoadNet"), Some(DatasetKind::RoadNet));
        assert_eq!(dataset_by_name("uk2002"), Some(DatasetKind::Uk2002));
        assert_eq!(dataset_by_name("atlantis"), None);
    }

    #[test]
    fn worker_args_carry_the_whole_spec() {
        let spec = ClusterSpec {
            machines: 3,
            dataset: DatasetKind::Dblp,
            scale: 0.05,
            seed: 9,
            query: "q2".into(),
            workers: 2,
            budget: Some(65536),
            driver: RoundDriver::Async,
            fetch_chunk: Some(512),
            cache: false,
            trace_out: Some(PathBuf::from("/tmp/a/trace.json")),
            metrics_out: Some(PathBuf::from("/tmp/a/metrics.json")),
            fault_policy: FaultPolicy::default(),
            chaos_kill_ms: None,
        };
        let addrs = vec![
            PeerAddr::Uds("/tmp/a/m0.sock".into()),
            PeerAddr::Uds("/tmp/a/m1.sock".into()),
            PeerAddr::Uds("/tmp/a/m2.sock".into()),
        ];
        let args = worker_args(&spec, 2, &addrs, Duration::from_secs(60));
        let joined = args.join(" ");
        assert!(joined.starts_with("worker --machine 2 --machines 3"));
        assert!(joined.contains("--addrs uds:/tmp/a/m0.sock,uds:/tmp/a/m1.sock,uds:/tmp/a/m2.sock"));
        assert!(joined.contains("--dataset DBLP"));
        assert!(joined.contains("--scale 0.05"));
        assert!(joined.contains("--query q2"));
        assert!(joined.contains("--workers 2"));
        assert!(joined.contains("--driver async"));
        assert!(joined.contains("--budget 65536"));
        assert!(joined.contains("--fetch-chunk 512"));
        assert!(joined.contains("--no-cache"));
        assert!(joined.contains("--timeout-secs 60"));
        assert!(joined.contains("--trace-out /tmp/a/trace.json.m2"));
        assert!(joined.contains("--metrics-out /tmp/a/metrics.json.m2"));
    }

    #[test]
    fn artifact_paths_derive_per_machine() {
        let base = Path::new("/tmp/run/trace.json");
        assert_eq!(machine_artifact(base, 0), base);
        assert_eq!(machine_artifact(base, 3), PathBuf::from("/tmp/run/trace.json.m3"));
        assert_eq!(
            prometheus_sibling(Path::new("/tmp/run/metrics.json")),
            PathBuf::from("/tmp/run/metrics.json.prom")
        );
    }

    #[test]
    fn address_allocation_matches_the_transport() {
        let uds = allocate_addrs(TransportKind::Uds, 3).unwrap();
        assert_eq!(uds.len(), 3);
        if cfg!(unix) {
            assert!(matches!(&uds[0], PeerAddr::Uds(_)));
            // all three live in the same scratch dir
            let dirs: std::collections::HashSet<_> = uds
                .iter()
                .map(|a| match a {
                    PeerAddr::Uds(p) => p.parent().unwrap().to_path_buf(),
                    PeerAddr::Tcp(_) => unreachable!(),
                })
                .collect();
            assert_eq!(dirs.len(), 1);
            let _ = std::fs::remove_dir_all(dirs.into_iter().next().unwrap());
        }
        let tcp = allocate_addrs(TransportKind::Tcp, 2).unwrap();
        assert!(matches!(&tcp[0], PeerAddr::Tcp(_)));
        assert_ne!(tcp[0], tcp[1]);
        assert!(allocate_addrs(TransportKind::InProcess, 2).is_err());
    }
}
