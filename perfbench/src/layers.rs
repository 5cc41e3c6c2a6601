//! Times single layers from outside: each function calls one layer's public
//! entry point on the workload's own inputs and reports what it did.

use std::hint::black_box;
use std::time::Instant;

use rads_core::memory::MemoryBudget;
use rads_core::region::{find_region_groups, GroupingStrategy};
use rads_core::sme::run_sme;
use rads_datasets::{generate, Dataset, DatasetKind, Scale};
use rads_exec::{ExecConfig, DEFAULT_STEAL_GRANULARITY};
use rads_graph::intersect::intersect_pair_into;
use rads_graph::{Graph, IntersectStats, Pattern};
use rads_partition::{
    LabelPropagationPartitioner, PartitionStats, PartitionedGraph, Partitioner, Partitioning,
};
use rads_plan::{best_plan, PlannerConfig};
use rads_runtime::wire::{decode_envelope, decode_response, encode_envelope, encode_response};
use rads_runtime::{Envelope, QueryId, Request, Response};

use crate::stats::median;

/// Repetitions of each timed set-up layer call (the median is reported).
const REPS: usize = 3;

/// The engine seed `rads-node` pins; region grouping on machine `m` is
/// seeded with `ENGINE_SEED ^ m`.
const ENGINE_SEED: u64 = 42;

/// Runs `f` and returns its value with the milliseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = black_box(f());
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Dataset generation and partitioning, timed.
pub struct SetupLayers {
    pub dataset: Dataset,
    pub partitioned: PartitionedGraph,
    pub generate_ms: f64,
    pub partition_ms: f64,
    pub build_ms: f64,
    pub border_fraction: f64,
}

/// Times `generate`, `LabelPropagationPartitioner::partition` and
/// `PartitionedGraph::build` exactly as every `rads-node` process calls
/// them.
pub fn setup_layers(kind: DatasetKind, scale: f64, seed: u64, machines: usize) -> SetupLayers {
    let mut generate_ms = Vec::new();
    let mut partition_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut last: Option<(Dataset, Partitioning, PartitionedGraph)> = None;
    for _ in 0..REPS {
        let (dataset, g) = timed(|| generate(kind, Scale(scale), seed));
        let (partitioning, p) =
            timed(|| LabelPropagationPartitioner::default().partition(&dataset.graph, machines));
        let (partitioned, b) =
            timed(|| PartitionedGraph::build(&dataset.graph, partitioning.clone()));
        generate_ms.push(g);
        partition_ms.push(p);
        build_ms.push(b);
        last = Some((dataset, partitioning, partitioned));
    }
    let (dataset, partitioning, partitioned) = last.expect("REPS > 0");
    let border_fraction = PartitionStats::compute(&dataset.graph, &partitioning).border_fraction();
    SetupLayers {
        dataset,
        partitioned,
        generate_ms: median(&generate_ms),
        partition_ms: median(&partition_ms),
        build_ms: median(&build_ms),
        border_fraction,
    }
}

/// Median µs of one `best_plan` call for `pattern`.
pub fn best_plan_us(pattern: &Pattern) -> f64 {
    let times: Vec<f64> = (0..REPS * 3)
        .map(|_| timed(|| best_plan(pattern, &PlannerConfig { rho: 1.0 })).1 * 1e3)
        .collect();
    median(&times)
}

/// SM-E and region grouping of one query over every machine.
pub struct LocalPhases {
    /// Slowest machine's `run_sme`, ms.
    pub sme_ms: f64,
    /// Embeddings SM-E found on all machines.
    pub sme_embeddings: u64,
    /// Slowest machine's `find_region_groups`, ms.
    pub grouping_ms: f64,
    /// Region groups over all machines.
    pub groups: usize,
}

/// Calls `run_sme` and then `find_region_groups` on each machine's
/// remaining candidates, with the configuration `rads-node` uses.
pub fn local_phases(
    partitioned: &PartitionedGraph,
    pattern: &Pattern,
    budget: &MemoryBudget,
) -> LocalPhases {
    let plan = best_plan(pattern, &PlannerConfig { rho: 1.0 });
    let exec = ExecConfig {
        workers: 1,
        steal_granularity: DEFAULT_STEAL_GRANULARITY,
    };
    let mut phases = LocalPhases {
        sme_ms: 0.0,
        sme_embeddings: 0,
        grouping_ms: 0.0,
        groups: 0,
    };
    for (machine, local) in partitioned.locals().iter().enumerate() {
        let (sme, sme_ms) = timed(|| run_sme(local, pattern, &plan, true, &exec));
        let (groups, grouping_ms) = timed(|| {
            find_region_groups(
                local,
                &sme.remaining_candidates,
                &sme.estimator,
                budget,
                GroupingStrategy::Proximity,
                ENGINE_SEED ^ machine as u64,
            )
        });
        phases.sme_ms = phases.sme_ms.max(sme_ms);
        phases.sme_embeddings += sme.count;
        phases.grouping_ms = phases.grouping_ms.max(grouping_ms);
        phases.groups += groups.len();
    }
    phases
}

/// ns per scanned element of `intersect_pair_into` over the adjacency
/// lists of the graph's edges.
pub fn intersect_ns_per_elem(graph: &Graph) -> f64 {
    let mut out = Vec::new();
    let mut stats = IntersectStats::default();
    let start = Instant::now();
    while start.elapsed().as_millis() < 100 {
        for (u, v) in graph.edges() {
            intersect_pair_into(graph.neighbors(u), graph.neighbors(v), &mut out, &mut stats);
            black_box(&out);
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / stats.elements_scanned.max(1) as f64
}

/// Wire codec throughput on envelopes shaped like the workload's batches.
pub struct Codec {
    pub encode_mb_s: f64,
    pub decode_mb_s: f64,
}

/// Encodes and decodes a `fetchV` request of `fetch_vertices` vertices, its
/// adjacency response, and a `verifyE` request of `verify_edges` pairs, all
/// drawn from `graph`, and reports MB/s over the encoded bytes.
pub fn codec(graph: &Graph, fetch_vertices: usize, verify_edges: usize) -> Codec {
    let vertices: Vec<u32> = graph.vertices().take(fetch_vertices.max(1)).collect();
    let fetch = Envelope {
        query: QueryId(1),
        seq: 1,
        body: Request::FetchVertices(vertices.clone()),
    };
    let verify = Envelope {
        query: QueryId(1),
        seq: 2,
        body: Request::VerifyEdges(graph.edges().take(verify_edges.max(1)).collect()),
    };
    let adjacency = Response::Adjacency(
        vertices
            .iter()
            .map(|&v| (v, graph.neighbors(v).to_vec()))
            .collect(),
    );
    let mut buf = Vec::new();
    let (mut bytes, mut encode_s, mut decode_s) = (0usize, 0.0, 0.0);
    let start = Instant::now();
    while start.elapsed().as_millis() < 100 {
        for envelope in [&fetch, &verify] {
            buf.clear();
            let t = Instant::now();
            encode_envelope(envelope, &mut buf);
            encode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let decoded = decode_envelope(&buf).expect("round trip");
            decode_s += t.elapsed().as_secs_f64();
            assert_eq!(&decoded, envelope, "codec round trip");
            bytes += buf.len();
        }
        buf.clear();
        let t = Instant::now();
        encode_response(&adjacency, &mut buf);
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = decode_response(&buf).expect("round trip");
        decode_s += t.elapsed().as_secs_f64();
        assert_eq!(decoded, adjacency, "codec round trip");
        bytes += buf.len();
    }
    let mb = bytes as f64 / 1e6;
    Codec {
        encode_mb_s: mb / encode_s.max(1e-9),
        decode_mb_s: mb / decode_s.max(1e-9),
    }
}
