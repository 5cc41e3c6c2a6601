//! `perfbench` — the RADS benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --node PATH/TO/rads-node --work SCRATCH_DIR [--tiny]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload
//! (closed-loop clients against a resident 4-machine `rads-node serve`
//! cluster, or one `rads-node run` per query); with `--trace 1` it splits
//! the same workload's queries into layers. Every reply is checked against
//! the single-machine oracle. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`;
//! the line before it is the configuration fingerprint. See `LAYERS.md`
//! for what each metric means and which layer should move it.

mod cluster;
mod layers;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rads_bench::json::Json;
use rads_bench::serve::QueryReply;
use rads_core::memory::MemoryBudget;
use rads_datasets::{generate, DatasetKind, Scale};
use rads_graph::queries::query_by_name;
use rads_single::count_embeddings;

use cluster::{ClusterConfig, Env, OneShot, ServeCluster, MACHINES};
use stats::{hd_quantile, median, quantile, Rng};
use trace::MachineSplit;

/// Cluster spawns (or, one-shot, probe runs) before the timed phase, and
/// again after it; `setup_s` is the median of all of them. The host's speed
/// flips within seconds, so set-ups taken at both ends of the run sample
/// more of it than set-ups taken back to back.
const SETUP_REPS: usize = 4;

/// The timed phase runs at least this many queries, so that the p90 has
/// at least ten samples beyond it.
const MIN_SAMPLES: usize = 110;

/// The timed phase never runs past this, whatever `--seconds` asks.
const MAX_PHASE: Duration = Duration::from_secs(120);

/// Traced and untraced one-shot runs per mix pattern in the traced run.
const TRACE_REPS: usize = 3;

/// The generator seed of every workload's dataset. `--seed` picks the
/// query order, not the graph: at these scales the graphs of different
/// generator seeds differ in query cost by 30-50%, which would swamp every
/// bound.
const DATASET_SEED: u64 = 42;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    dataset: DatasetKind,
    scale: f64,
    /// Query patterns and their weights in one cycle of the mix.
    mix: &'static [(&'static str, usize)],
    /// A cheap pattern outside the mix: the first reply to it ends set-up.
    probe: &'static str,
    /// Closed-loop clients (each runs its own shuffled cycles of the mix).
    clients: usize,
    /// Φ, the per-group memory budget (`None` = the program default).
    budget: Option<u64>,
    max_concurrent: usize,
    /// One `rads-node run` per query instead of a resident cluster.
    oneshot: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "road-serve",
        dataset: DatasetKind::RoadNet,
        scale: 4.0,
        mix: &[("q1", 1), ("q6", 1), ("q7", 2)],
        probe: "c2",
        clients: 1,
        budget: None,
        max_concurrent: 1,
        oneshot: false,
    },
    Workload {
        name: "lj-serve",
        dataset: DatasetKind::LiveJournal,
        scale: 0.1,
        mix: &[("q1", 2), ("q2", 2), ("q4", 1), ("q5", 1)],
        probe: "c1",
        clients: 1,
        budget: None,
        max_concurrent: 1,
        oneshot: false,
    },
    Workload {
        name: "uk-budget-2c",
        dataset: DatasetKind::Uk2002,
        scale: 0.05,
        mix: &[("c1", 2), ("q1", 2), ("q2", 2), ("q4", 1)],
        probe: "c4",
        clients: 2,
        budget: Some(256 * 1024),
        max_concurrent: 2,
        oneshot: false,
    },
    Workload {
        name: "oneshot-lj",
        dataset: DatasetKind::LiveJournal,
        scale: 0.05,
        mix: &[("q1", 1), ("q2", 2)],
        probe: "c1",
        clients: 1,
        budget: None,
        max_concurrent: 1,
        oneshot: true,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node: PathBuf,
    work: PathBuf,
    /// Self-test mode: a quarter of the scale, no sample floor.
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: HashMap<String, String> = HashMap::new();
    let mut tiny = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected {:?}", argv[i]))?;
        if flag == "tiny" {
            tiny = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{flag} needs a value"))?;
        values.insert(flag.to_string(), value.clone());
        i += 2;
    }
    let take = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<f64, String> {
        take(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    };
    Ok(Args {
        workload: take("workload")?,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds: number("seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        node: PathBuf::from(take("node")?),
        work: PathBuf::from(take("work")?),
        tiny,
    })
}

/// What one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    samples: usize,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Records one query outcome; `count` is `None` for an error, rejection
    /// or timeout.
    fn check(&mut self, count: Option<u64>, expected: u64) -> bool {
        self.attempted += 1;
        let ok = count == Some(expected);
        if !ok {
            self.failed += 1;
        }
        ok
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--list") {
        let names: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("\"{}\"", w.name))
            .collect();
        println!("[{}]", names.join(","));
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((fingerprint, report)) => {
            println!("{fingerprint}");
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(String, Report), String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    std::fs::create_dir_all(args.work.join("tmp"))
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let env = Env {
        node: args.node.clone(),
        work: args.work.clone(),
    };
    let config = ClusterConfig {
        dataset: workload.dataset.name(),
        scale: if args.tiny {
            workload.scale / 4.0
        } else {
            workload.scale
        },
        seed: DATASET_SEED,
        budget: workload.budget,
        max_concurrent: workload.max_concurrent,
    };
    let run = Run {
        env,
        workload,
        golden: golden_counts(workload, &config),
        config,
        seed: args.seed,
        phase: Duration::from_secs_f64(args.seconds.max(0.0)),
        min_samples: if args.tiny { 0 } else { MIN_SAMPLES },
    };
    let report = match (args.trace, workload.oneshot) {
        (false, false) => run.serve_end_to_end()?,
        (false, true) => run.oneshot_end_to_end()?,
        (true, _) => run.per_layer()?,
    };
    Ok((run.fingerprint(args, &report), report))
}

/// Embedding counts of every mix pattern and the probe, from the
/// single-machine oracle (untimed set-up).
fn golden_counts(workload: &Workload, config: &ClusterConfig) -> HashMap<String, u64> {
    let dataset = generate(workload.dataset, Scale(config.scale), config.seed);
    workload
        .mix
        .iter()
        .map(|&(name, _)| name)
        .chain([workload.probe])
        .map(|name| {
            let pattern = query_by_name(name).expect("workload patterns exist");
            (name.to_string(), count_embeddings(&dataset.graph, &pattern))
        })
        .collect()
}

/// One correct query of a timed phase.
struct Sample {
    pattern: &'static str,
    /// Client round trip.
    latency_ms: f64,
    /// The server's own time, dispatch to all reports.
    elapsed_us: u64,
    plan_cache_hit: bool,
    /// The query's delta of the cluster metrics.
    metrics: Json,
}

struct Run<'a> {
    env: Env,
    workload: &'a Workload,
    config: ClusterConfig,
    golden: HashMap<String, u64>,
    seed: u64,
    phase: Duration,
    min_samples: usize,
}

impl Run<'_> {
    fn expected(&self, pattern: &str) -> u64 {
        self.golden[pattern]
    }

    /// Φ, the per-group memory budget every machine runs with.
    fn budget(&self) -> MemoryBudget {
        self.workload
            .budget
            .map_or_else(MemoryBudget::default, |bytes| {
                MemoryBudget::from_bytes(bytes as usize)
            })
    }

    /// Checks a serve reply against the oracle; the count of a correct one.
    fn check_reply(
        &self,
        reply: &Result<QueryReply, String>,
        pattern: &str,
        report: &mut Report,
    ) -> bool {
        let count = match reply {
            Ok(QueryReply::Ok { count, .. }) => Some(*count),
            _ => None,
        };
        report.check(count, self.expected(pattern))
    }

    /// Spawns the serve cluster `SETUP_REPS` times, timing each from spawn
    /// to the first correct reply to the probe into `times`; keeps the last
    /// one running.
    fn setup_serve(&self, times: &mut Vec<f64>) -> Result<ServeCluster, String> {
        let mut kept = None;
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            let cluster = ServeCluster::spawn(&self.env, &self.config)?;
            let probe = self.workload.probe;
            cluster.probe(probe, self.expected(probe), Duration::from_secs(60))?;
            times.push(start.elapsed().as_secs_f64());
            if rep + 1 < SETUP_REPS {
                cluster.shutdown()?;
            } else {
                kept = Some(cluster);
            }
        }
        Ok(kept.expect("SETUP_REPS > 0"))
    }

    /// Times `SETUP_REPS` one-shot runs of the probe into `times`.
    fn setup_oneshot(&self, times: &mut Vec<f64>, report: &mut Report) {
        for _ in 0..SETUP_REPS {
            if let Some(probe) = self.oneshot(self.workload.probe, None, false, report) {
                times.push(probe.wall.as_secs_f64());
            }
        }
    }

    /// Runs every mix pattern once, untimed, so the plan cache is warm.
    fn warm(&self, cluster: &ServeCluster, report: &mut Report) {
        for &(pattern, _) in self.workload.mix {
            self.check_reply(&cluster.query(pattern, 2), pattern, report);
        }
    }

    /// One cycle of the mix: every pattern as often as its weight, in an
    /// order drawn from the seed.
    fn cycle(&self, rng: &mut Rng) -> Vec<&'static str> {
        let mut cycle: Vec<&'static str> = self
            .workload
            .mix
            .iter()
            .flat_map(|&(pattern, weight)| std::iter::repeat_n(pattern, weight))
            .collect();
        rng.shuffle(&mut cycle);
        cycle
    }

    /// Whole cycles of the mix until the phase is over and enough samples
    /// are in, on `clients` closed-loop client threads. Returns the correct
    /// queries and the throughput: per client, the median over its cycles of the
    /// cycle's queries per second, summed over clients (a median, so a few
    /// seconds of a busy host do not move it).
    fn closed_loop(
        &self,
        cluster: &ServeCluster,
        phase: Duration,
        report: &mut Report,
    ) -> (Vec<Sample>, f64) {
        let done = std::sync::atomic::AtomicUsize::new(0);
        let start = Instant::now();
        type Sent = (&'static str, f64, Result<QueryReply, String>);
        let per_client: Vec<(Vec<Sent>, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workload.clients)
                .map(|client| {
                    let done = &done;
                    scope.spawn(move || {
                        let mut rng = Rng::new(self.seed, client as u64);
                        let (mut samples, mut rates) = (Vec::new(), Vec::new());
                        let mut correlation = (client as u64 + 1) << 32;
                        loop {
                            let elapsed = start.elapsed();
                            let enough =
                                done.load(std::sync::atomic::Ordering::Relaxed) >= self.min_samples;
                            if (elapsed >= phase && enough) || elapsed >= MAX_PHASE {
                                break;
                            }
                            let cycle = self.cycle(&mut rng);
                            let began = Instant::now();
                            for &pattern in &cycle {
                                correlation += 1;
                                let sent = Instant::now();
                                let reply = cluster.query(pattern, correlation);
                                let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                                samples.push((pattern, latency_ms, reply));
                                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            rates.push(cycle.len() as f64 / began.elapsed().as_secs_f64());
                        }
                        (samples, median(&rates))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let qps = per_client.iter().map(|(_, rate)| rate).sum();
        let mut samples = Vec::new();
        for (pattern, latency_ms, reply) in per_client.into_iter().flat_map(|(s, _)| s) {
            if !self.check_reply(&reply, pattern, report) {
                continue;
            }
            if let Ok(QueryReply::Ok {
                elapsed_us,
                plan_cache_hit,
                metrics_json,
                ..
            }) = reply
            {
                let metrics = Json::parse(&metrics_json).unwrap_or(Json::Null);
                samples.push(Sample {
                    pattern,
                    latency_ms,
                    elapsed_us,
                    plan_cache_hit,
                    metrics,
                });
            }
        }
        report.samples += samples.len();
        (samples, qps)
    }

    fn serve_end_to_end(&self) -> Result<Report, String> {
        let mut report = Report::default();
        let mut setups = Vec::new();
        let cluster = self.setup_serve(&mut setups)?;
        self.warm(&cluster, &mut report);
        let (samples, qps) = self.closed_loop(&cluster, self.phase, &mut report);
        let rss_mb = cluster.peak_rss_mb();
        cluster.shutdown()?;
        self.setup_serve(&mut setups)?.shutdown()?;
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        self.describe(samples.iter().map(|s| (s.pattern, s.latency_ms)));
        let bytes = total(&samples, "rads_net_bytes_total");
        let peak = highest(&samples, "rads_governor_peak_tracked_bytes");
        report.metric("setup_s", hd_quantile(&setups, 0.5), "s");
        report.metric("qps", qps, "1/s");
        report.metric("latency_p50_ms", hd_quantile(&latencies, 0.5), "ms");
        report.metric("latency_p90_ms", hd_quantile(&latencies, 0.9), "ms");
        report.metric(
            "wire_kb_per_query",
            bytes / samples.len().max(1) as f64 / 1e3,
            "kB",
        );
        report.metric("peak_mb", peak / 1e6, "MB");
        report.metric("rss_mb", rss_mb, "MB");
        Ok(report)
    }

    /// One one-shot run of `pattern`, checked against the oracle; `None`
    /// when it failed or miscounted.
    fn oneshot(
        &self,
        pattern: &str,
        trace_out: Option<&Path>,
        metrics: bool,
        report: &mut Report,
    ) -> Option<OneShot> {
        let run = cluster::run_oneshot(&self.env, &self.config, pattern, trace_out, metrics).ok();
        let count = run.as_ref().map(OneShot::count);
        report
            .check(count, self.expected(pattern))
            .then_some(run)
            .flatten()
    }

    fn oneshot_end_to_end(&self) -> Result<Report, String> {
        let mut report = Report::default();
        let mut setups = Vec::new();
        self.setup_oneshot(&mut setups, &mut report);
        for &(pattern, _) in self.workload.mix {
            self.oneshot(pattern, None, false, &mut report);
        }
        let mut rng = Rng::new(self.seed, 0);
        let (mut walls, mut bytes, mut rates) = (Vec::new(), 0.0, Vec::new());
        let start = Instant::now();
        while (start.elapsed() < self.phase || walls.len() < self.min_samples)
            && start.elapsed() < MAX_PHASE
        {
            let cycle = self.cycle(&mut rng);
            let began = Instant::now();
            for &pattern in &cycle {
                // metrics stay off while timed: with metrics on, every
                // worker's exit waits out its metrics ticker
                if let Some(run) = self.oneshot(pattern, None, false, &mut report) {
                    walls.push((pattern, run.wall.as_secs_f64() * 1e3));
                    bytes += run.wire_bytes();
                }
            }
            rates.push(cycle.len() as f64 / began.elapsed().as_secs_f64());
        }
        self.describe(walls.iter().copied());
        let walls: Vec<f64> = walls.into_iter().map(|(_, ms)| ms).collect();
        let mut peak = 0.0f64;
        for &(pattern, _) in self.workload.mix {
            if let Some(run) = self.oneshot(pattern, None, true, &mut report) {
                peak = peak.max(run.metric("rads_governor_peak_tracked_bytes"));
            }
        }
        report.samples += walls.len();
        self.setup_oneshot(&mut setups, &mut report);
        report.metric("setup_s", hd_quantile(&setups, 0.5), "s");
        report.metric("qps", median(&rates), "1/s");
        report.metric("latency_p50_ms", hd_quantile(&walls, 0.5), "ms");
        report.metric("latency_p90_ms", hd_quantile(&walls, 0.9), "ms");
        report.metric(
            "wire_kb_per_query",
            bytes / walls.len().max(1) as f64 / 1e3,
            "kB",
        );
        report.metric("peak_mb", peak / 1e6, "MB");
        report.metric("rss_mb", cluster::children_peak_rss_mb(), "MB");
        Ok(report)
    }

    /// Per-pattern latency quartiles on stderr, for reading where the
    /// overall percentiles fall in the mix.
    fn describe(&self, samples: impl IntoIterator<Item = (&'static str, f64)>) {
        let mut by_pattern: HashMap<&str, Vec<f64>> = HashMap::new();
        for (pattern, ms) in samples {
            by_pattern.entry(pattern).or_default().push(ms);
        }
        for &(pattern, _) in self.workload.mix {
            let ms = by_pattern.remove(pattern).unwrap_or_default();
            eprintln!(
                "perfbench: {pattern}: {} samples, latency p25 {:.2} / p50 {:.2} / p75 {:.2} ms",
                ms.len(),
                quantile(&ms, 0.25),
                median(&ms),
                quantile(&ms, 0.75)
            );
        }
    }

    /// Each mix pattern with its share of one cycle.
    fn weights(&self) -> Vec<(&'static str, f64)> {
        let total: usize = self.workload.mix.iter().map(|&(_, w)| w).sum();
        self.workload
            .mix
            .iter()
            .map(|&(p, w)| (p, w as f64 / total as f64))
            .collect()
    }

    fn per_layer(&self) -> Result<Report, String> {
        let mut report = Report::default();
        let weights = self.weights();
        let budget = self.budget();

        // -- set-up layers and the local phases, timed in-process
        let setup = layers::setup_layers(
            self.workload.dataset,
            self.config.scale,
            self.config.seed,
            MACHINES,
        );
        let (mut plan_us, mut sme_ms, mut sme_found, mut found, mut grouping_ms, mut groups) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for &(name, weight) in &weights {
            let pattern = query_by_name(name).expect("workload patterns exist");
            plan_us += weight * layers::best_plan_us(&pattern);
            let local = layers::local_phases(&setup.partitioned, &pattern, &budget);
            sme_ms += weight * local.sme_ms;
            sme_found += weight * local.sme_embeddings as f64;
            found += weight * self.expected(name) as f64;
            grouping_ms += weight * local.grouping_ms;
            groups += weight * local.groups as f64;
        }

        // -- counters of the workload's own traffic; the serve overhead
        //    comes from a resident cluster of the same flags either way
        let (serve, serve_overhead_ms) = self.serve_counters(&mut report)?;
        let counters = if self.workload.oneshot {
            self.oneshot_counters(&mut report)
        } else {
            serve
        };
        let per_query = |name: &str| counters.values.get(name).copied().unwrap_or(0.0);

        // -- the traced split, from one-shot runs of each mix pattern
        let split = self.traced_split(&weights, &mut report)?;

        let verify_batch = per_query("rads_undetermined_edges_total")
            / per_query("rads_verify_requests_total").max(1.0);
        let fetch_batch = (setup.dataset.graph.vertex_count() / MACHINES)
            .min(rads_core::engine::DEFAULT_FETCH_CHUNK_VERTICES);
        let codec = layers::codec(
            &setup.dataset.graph,
            fetch_batch,
            verify_batch.round() as usize,
        );

        report.metric("datasets.generate_ms", setup.generate_ms, "ms");
        report.metric("partition.partition_ms", setup.partition_ms, "ms");
        report.metric("partition.build_ms", setup.build_ms, "ms");
        report.metric("partition.border_fraction", setup.border_fraction, "ratio");
        report.metric("plan.best_plan_us", plan_us, "us");
        report.metric("plan.cache_hit_ratio", counters.plan_hit_ratio, "ratio");
        report.metric("query.span_ms", split.query_ms, "ms");
        report.metric("sme.ms", sme_ms, "ms");
        report.metric("sme.self_ms", split.layer_ms[0], "ms");
        report.metric("sme.embedding_share", sme_found / found.max(1.0), "ratio");
        report.metric("region.grouping_ms", grouping_ms, "ms");
        report.metric("region.self_ms", split.layer_ms[1], "ms");
        report.metric("region.groups", groups, "count");
        report.metric("expand.self_ms", split.layer_ms[2], "ms");
        report.metric(
            "expand.trie_nodes",
            per_query("rads_trie_nodes_created_total"),
            "count",
        );
        report.metric(
            "intersect.elements_scanned",
            per_query("rads_intersect_elements_scanned_total"),
            "count",
        );
        report.metric(
            "intersect.kernel_calls",
            per_query("rads_intersect_kernel_calls_total"),
            "count",
        );
        report.metric(
            "intersect.merge_ns_per_elem",
            layers::intersect_ns_per_elem(&setup.dataset.graph),
            "ns",
        );
        report.metric("verify.self_ms", split.layer_ms[3], "ms");
        report.metric(
            "verify.requests",
            per_query("rads_verify_requests_total"),
            "count",
        );
        report.metric(
            "evi.undetermined_edges",
            per_query("rads_undetermined_edges_total"),
            "count",
        );
        report.metric(
            "evi.filtered_per_edge",
            per_query("rads_candidates_filtered_total")
                / per_query("rads_undetermined_edges_total").max(1.0),
            "ratio",
        );
        report.metric("fetch.self_ms", split.layer_ms[4], "ms");
        report.metric(
            "fetch.requests",
            per_query("rads_fetch_requests_total"),
            "count",
        );
        report.metric(
            "fetch.demand_wait_us",
            per_query("rads_fetch_demand_wait_us_sum"),
            "us",
        );
        report.metric(
            "cache.evictions",
            per_query("rads_cache_evictions_total"),
            "count",
        );
        report.metric(
            "governor.splits",
            per_query("rads_governor_splits_total"),
            "count",
        );
        report.metric(
            "governor.respilled",
            per_query("rads_governor_respilled_candidates_total"),
            "count",
        );
        report.metric(
            "governor.peak_over_budget",
            counters.peak_bytes / budget.region_group_bytes as f64,
            "ratio",
        );
        report.metric("steal.ms", split.layer_ms[5], "ms");
        report.metric(
            "steal.groups_stolen",
            per_query("rads_groups_stolen_total"),
            "count",
        );
        report.metric("machine.imbalance", split.imbalance, "ratio");
        report.metric("wire.encode_mb_s", codec.encode_mb_s, "MB/s");
        report.metric("wire.decode_mb_s", codec.decode_mb_s, "MB/s");
        report.metric(
            "wire.messages_per_query",
            per_query("rads_net_messages_total"),
            "count",
        );
        report.metric("serve.overhead_ms", serve_overhead_ms, "ms");
        report.metric("procs.overhead_ms", split.procs_overhead_ms, "ms");
        report.metric("trace.unattributed_pct", split.unattributed_pct, "%");
        report.metric("obs.trace_overhead_pct", split.trace_overhead_pct, "%");
        Ok(report)
    }

    /// Per-query cluster counters from half a timed phase on a resident
    /// cluster, and the median serve overhead (client round trip minus the
    /// server's own time). With one client, queries never overlap and the
    /// sum of the replies' metric deltas is exact. With several, a reply's
    /// delta also holds work of queries that overlapped it, so the counters
    /// come from the coordinator's Prometheus page, diffed around the
    /// phase: exact, but machine 0's share only.
    fn serve_counters(&self, report: &mut Report) -> Result<(Counters, f64), String> {
        let cluster = ServeCluster::spawn(&self.env, &self.config)?;
        let probe = self.workload.probe;
        cluster.probe(probe, self.expected(probe), Duration::from_secs(60))?;
        self.warm(&cluster, report);
        let before = cluster.scrape()?;
        let (samples, _) = self.closed_loop(&cluster, self.phase / 2, report);
        let after = cluster.scrape()?;
        cluster.shutdown()?;
        let queries = samples.len().max(1) as f64;
        let values = COUNTERS
            .iter()
            .map(|&name| {
                let sum = if self.workload.clients > 1 {
                    after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0)
                } else {
                    total(&samples, name)
                };
                (name, sum / queries)
            })
            .collect();
        let hits = samples.iter().filter(|s| s.plan_cache_hit).count();
        let overheads: Vec<f64> = samples
            .iter()
            .map(|s| s.latency_ms - s.elapsed_us as f64 / 1e3)
            .collect();
        let counters = Counters {
            values,
            peak_bytes: highest(&samples, "rads_governor_peak_tracked_bytes"),
            plan_hit_ratio: hits as f64 / queries,
        };
        Ok((counters, median(&overheads)))
    }

    /// Per-query cluster counters from one-shot runs with metrics on (each
    /// run is its own cluster, so its summary metrics are exact).
    fn oneshot_counters(&self, report: &mut Report) -> Counters {
        let mut rng = Rng::new(self.seed, 0);
        let mut runs = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.phase / 2 || runs.is_empty() {
            for pattern in self.cycle(&mut rng) {
                runs.extend(self.oneshot(pattern, None, true, report));
            }
        }
        let queries = runs.len().max(1) as f64;
        let values = COUNTERS
            .iter()
            .map(|&name| {
                (
                    name,
                    runs.iter().map(|r| r.metric(name)).sum::<f64>() / queries,
                )
            })
            .collect();
        let peak_bytes = runs
            .iter()
            .map(|r| r.metric("rads_governor_peak_tracked_bytes"))
            .fold(0.0, f64::max);
        Counters {
            values,
            peak_bytes,
            plan_hit_ratio: 0.0,
        }
    }

    /// Traced and untraced one-shot runs of every mix pattern, folded into
    /// per-layer self times (mean over machines, weighted over the mix).
    fn traced_split(
        &self,
        weights: &[(&'static str, f64)],
        report: &mut Report,
    ) -> Result<Split, String> {
        let mut split = Split::default();
        let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
        let (mut query_us, mut unattributed_us) = (0.0, 0.0);
        for &(pattern, weight) in weights {
            let (mut traced, mut untraced, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
            let mut own = MachineSplit::default();
            for rep in 0..TRACE_REPS {
                if let Some(run) = self.oneshot(pattern, None, false, report) {
                    let engine_ms = run.machine_ms().into_iter().fold(0.0, f64::max);
                    untraced.push(engine_ms);
                    overheads.push(run.wall.as_secs_f64() * 1e3 - engine_ms);
                }
                let path = self.env.work.join(format!("trace-{pattern}-{rep}.json"));
                if let Some(run) = self.oneshot(pattern, Some(&path), false, report) {
                    traced.push(run.machine_ms().into_iter().fold(0.0, f64::max));
                    let machines: Vec<MachineSplit> = (0..MACHINES)
                        .map(|m| {
                            let file = if m == 0 {
                                path.clone()
                            } else {
                                PathBuf::from(format!("{}.m{m}", path.display()))
                            };
                            trace::split_machine(&file)
                        })
                        .collect::<Result<_, _>>()?;
                    let share = weight / (TRACE_REPS * MACHINES) as f64;
                    for machine in &machines {
                        own.query_us += machine.query_us;
                        for (layer, us) in machine.layer_us.iter().enumerate() {
                            own.layer_us[layer] += us;
                        }
                        split.query_ms += share * machine.query_us / 1e3;
                        for (layer, us) in machine.layer_us.iter().enumerate() {
                            split.layer_ms[layer] += share * us / 1e3;
                        }
                        query_us += weight * machine.query_us;
                        unattributed_us += weight * machine.unattributed_us();
                    }
                    let spans: Vec<f64> = machines.iter().map(|m| m.query_us).collect();
                    let slowest = spans.iter().copied().fold(0.0, f64::max);
                    let fastest = spans.iter().copied().fold(f64::INFINITY, f64::min);
                    split.imbalance += weight / TRACE_REPS as f64 * slowest / fastest.max(1.0);
                }
            }
            // per-pattern shares on stderr, for reading one query's split
            let shares: Vec<String> = trace::LAYERS
                .iter()
                .zip(own.layer_us)
                .map(|((layer, _), us)| {
                    format!("{layer} {:.1}%", 100.0 * us / own.query_us.max(1.0))
                })
                .collect();
            eprintln!(
                "perfbench: {pattern}: query span {:.2} ms/machine, engine {:.2} ms, process {:.2} ms; {}; unattributed {:.1}%",
                own.query_us / (1e3 * (TRACE_REPS * MACHINES) as f64),
                median(&untraced),
                median(&untraced) + median(&overheads),
                shares.join(", "),
                100.0 * own.unattributed_us() / own.query_us.max(1.0),
            );
            traced_ms += weight * median(&traced);
            untraced_ms += weight * median(&untraced);
            split.procs_overhead_ms += weight * median(&overheads);
        }
        split.unattributed_pct = 100.0 * unattributed_us / query_us.max(1.0);
        split.trace_overhead_pct = 100.0 * (traced_ms / untraced_ms.max(1e-9) - 1.0);
        Ok(split)
    }

    fn fingerprint(&self, args: &Args, report: &Report) -> String {
        let mix: Vec<String> = self
            .workload
            .mix
            .iter()
            .map(|(p, w)| format!("{p}x{w}"))
            .collect();
        format!(
            concat!(
                "{{\"fingerprint\":{{\"revision\":\"{}\",\"nproc\":{},\"transport\":\"uds\",",
                "\"driver\":\"async\",\"machines\":{},\"workers\":1,\"workload\":\"{}\",",
                "\"dataset\":\"{}\",\"scale\":{},\"dataset_seed\":{},\"seed\":{},\"budget_bytes\":{},",
                "\"admission_bytes\":null,\"max_concurrent_queries\":{},\"clients\":{},",
                "\"mix\":\"{}\",\"mode\":\"{}\",\"trace\":{},\"samples\":{}}}}}"
            ),
            std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".to_string()),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            MACHINES,
            self.workload.name,
            self.config.dataset,
            self.config.scale,
            self.config.seed,
            self.seed,
            self.budget().region_group_bytes,
            self.workload.max_concurrent,
            self.workload.clients,
            mix.join(","),
            if self.workload.oneshot { "rads-node run" } else { "rads-node serve" },
            u8::from(args.trace),
            report.samples,
        )
    }
}

/// Cluster counters the traced run reports per query.
const COUNTERS: [&str; 13] = [
    "rads_trie_nodes_created_total",
    "rads_intersect_elements_scanned_total",
    "rads_intersect_kernel_calls_total",
    "rads_verify_requests_total",
    "rads_undetermined_edges_total",
    "rads_candidates_filtered_total",
    "rads_fetch_requests_total",
    "rads_fetch_demand_wait_us_sum",
    "rads_cache_evictions_total",
    "rads_governor_splits_total",
    "rads_governor_respilled_candidates_total",
    "rads_groups_stolen_total",
    "rads_net_messages_total",
];

struct Counters {
    /// Per-query mean of each of [`COUNTERS`].
    values: HashMap<&'static str, f64>,
    /// Highest governor-tracked bytes of any query.
    peak_bytes: f64,
    plan_hit_ratio: f64,
}

/// Sum of metric `name` over the samples' metric deltas.
fn total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .map(|s| cluster::metric_value(&s.metrics, name))
        .sum()
}

/// Highest value of gauge `name` in the samples' metrics.
fn highest(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .map(|s| cluster::metric_value(&s.metrics, name))
        .fold(0.0, f64::max)
}

#[derive(Default)]
struct Split {
    query_ms: f64,
    layer_ms: [f64; trace::LAYERS.len()],
    imbalance: f64,
    unattributed_pct: f64,
    trace_overhead_pct: f64,
    procs_overhead_ms: f64,
}
