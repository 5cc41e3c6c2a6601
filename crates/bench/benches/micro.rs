//! Criterion micro-benchmarks of RADS's building blocks: the sorted-set
//! intersection kernels, the embedding trie, the edge-verification index,
//! region grouping, plan computation, border-distance computation,
//! partitioning and the single-machine enumerator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rads_core::trie::EmbeddingTrie;
use rads_core::evi::EdgeVerificationIndex;
use rads_core::memory::MemoryBudget;
use rads_core::region::{find_region_groups, GroupingStrategy};
use rads_core::sme::run_sme;
use rads_datasets::{generate, DatasetKind, Scale};
use rads_exec::{ExecConfig, DEFAULT_STEAL_GRANULARITY};
use rads_graph::generators::{barabasi_albert, grid_2d};
use rads_graph::intersect::{intersect_k_into, intersect_pair_into, IntersectStats};
use rads_graph::{queries, VertexId};
use rads_partition::{
    BfsPartitioner, HashPartitioner, LabelPropagationPartitioner, LocalPartition, PartitionedGraph, Partitioner,
};
use rads_plan::{best_plan, PlannerConfig};
use rads_single::count_embeddings;

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    // comparable lengths -> linear-merge dispatch
    let a: Vec<VertexId> = (0..20_000).map(|i| i * 3).collect();
    let b: Vec<VertexId> = (0..20_000).map(|i| i * 5).collect();
    group.bench_function("merge_20k_x_20k", |bench| {
        let (mut out, mut stats) = (Vec::new(), IntersectStats::default());
        bench.iter(|| {
            intersect_pair_into(&a, &b, &mut out, &mut stats);
            out.len()
        })
    });
    // 1000x length skew -> galloping dispatch
    let small: Vec<VertexId> = (0..200).map(|i| i * 997).collect();
    let big: Vec<VertexId> = (0..200_000).collect();
    group.bench_function("gallop_200_x_200k", |bench| {
        let (mut out, mut stats) = (Vec::new(), IntersectStats::default());
        bench.iter(|| {
            intersect_pair_into(&small, &big, &mut out, &mut stats);
            out.len()
        })
    });
    // k-way over the adjacency lists of power-law hubs — the shape the
    // enumerator produces on clique queries
    let g = barabasi_albert(3000, 8, 5);
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let hubs: Vec<&[VertexId]> = by_degree[..4].iter().map(|&v| g.neighbors(v)).collect();
    group.bench_function("kway_4_hub_adjacency", |bench| {
        let (mut out, mut tmp, mut stats) = (Vec::new(), Vec::new(), IntersectStats::default());
        bench.iter(|| {
            let mut lists = hubs.clone();
            intersect_k_into(&mut lists, &mut out, &mut tmp, &mut stats);
            out.len()
        })
    });
    group.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding_trie");
    group.bench_function("insert_10k_paths", |b| {
        b.iter(|| {
            let mut trie = EmbeddingTrie::new();
            for root in 0..100u32 {
                let r = trie.add_root(root);
                for mid in 0..10u32 {
                    let m = trie.add_child(r, 1000 + mid);
                    for leaf in 0..10u32 {
                        trie.add_child(m, 2000 + leaf);
                    }
                }
            }
            trie.node_count()
        })
    });
    group.bench_function("insert_then_remove_half", |b| {
        b.iter(|| {
            let mut trie = EmbeddingTrie::new();
            let mut leaves = Vec::new();
            for root in 0..100u32 {
                let r = trie.add_root(root);
                for leaf in 0..50u32 {
                    leaves.push(trie.add_child(r, 1000 + leaf));
                }
            }
            for (i, leaf) in leaves.iter().enumerate() {
                if i % 2 == 0 {
                    trie.remove(*leaf);
                }
            }
            trie.node_count()
        })
    });
    group.finish();
}

fn bench_evi(c: &mut Criterion) {
    c.bench_function("evi_group_and_filter", |b| {
        b.iter(|| {
            let mut trie = EmbeddingTrie::new();
            let mut evi = EdgeVerificationIndex::new();
            let root = trie.add_root(0);
            for i in 0..2000u32 {
                let leaf = trie.add_child(root, i + 1);
                evi.add(i % 50, i % 50 + 1, leaf);
            }
            let mut verdicts = std::collections::HashMap::new();
            for i in 0..25u32 {
                verdicts.insert(rads_graph::types::EdgeKey::new(i, i + 1), false);
            }
            evi.filter_failed(&mut trie, &verdicts)
        })
    });
}

/// Region grouping (Algorithm 3) of the SM-E remaining candidates of the
/// busiest machine: RoadNet stand-in at scale 4 over 4 label-propagation
/// machines, q1, default budget — the shape where every remaining
/// candidate of a machine lands in one group.
fn bench_region_grouping(c: &mut Criterion) {
    let dataset = generate(DatasetKind::RoadNet, Scale(4.0), 42);
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, 4);
    let partitioned = PartitionedGraph::build(&dataset.graph, partitioning);
    let pattern = queries::query_by_name("q1").unwrap();
    let plan = best_plan(&pattern, &PlannerConfig { rho: 1.0 });
    let exec = ExecConfig { workers: 1, steal_granularity: DEFAULT_STEAL_GRANULARITY };
    let (local, sme) = partitioned
        .locals()
        .iter()
        .map(|local| (local, run_sme(local, &pattern, &plan, true, &exec)))
        .max_by_key(|(_, sme)| sme.remaining_candidates.len())
        .unwrap();
    let budget = MemoryBudget::default();
    c.bench_function("region_grouping_roadnet_q1", |b| {
        b.iter(|| {
            find_region_groups(
                local,
                &sme.remaining_candidates,
                &sme.estimator,
                &budget,
                GroupingStrategy::Proximity,
                42,
            )
            .len()
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution_plan");
    for nq in queries::standard_query_set() {
        group.bench_with_input(BenchmarkId::new("best_plan", nq.name), &nq.pattern, |b, p| {
            b.iter(|| best_plan(p, &PlannerConfig::default()).rounds())
        });
    }
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let g = barabasi_albert(2000, 4, 11);
    let mut group = c.benchmark_group("partitioning");
    group.bench_function("hash_8way", |b| b.iter(|| HashPartitioner.partition(&g, 8).sizes()));
    group.bench_function("bfs_8way", |b| b.iter(|| BfsPartitioner.partition(&g, 8).sizes()));
    group.bench_function("label_propagation_8way", |b| {
        b.iter(|| LabelPropagationPartitioner::default().partition(&g, 8).sizes())
    });
    group.finish();
}

fn bench_border_distance(c: &mut Criterion) {
    let g = grid_2d(60, 60);
    let partitioning = BfsPartitioner.partition(&g, 4);
    c.bench_function("border_distance_grid60", |b| {
        b.iter(|| {
            (0..4)
                .map(|m| LocalPartition::build(&g, &partitioning, m).border_vertices().len())
                .sum::<usize>()
        })
    });
}

fn bench_single_machine(c: &mut Criterion) {
    let g = barabasi_albert(400, 4, 3);
    let mut group = c.benchmark_group("single_machine_enumeration");
    group.sample_size(10);
    for name in ["triangle", "q1", "q2"] {
        let q = queries::query_by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::new("count", name), &q, |b, q| {
            b.iter(|| count_embeddings(&g, q))
        });
    }
    group.finish();
    let _ = VertexId::default();
}

criterion_group!(
    benches,
    bench_intersection,
    bench_trie,
    bench_evi,
    bench_region_grouping,
    bench_planner,
    bench_partitioning,
    bench_border_distance,
    bench_single_machine
);
criterion_main!(benches);
