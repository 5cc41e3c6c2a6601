//! Region grouping (Section 6, Algorithm 3).
//!
//! The candidate vertices of the start query vertex are divided into disjoint
//! *region groups*, each processed independently so that the cached
//! intermediate results never exceed the memory budget. Groups are grown
//! greedily by *proximity* — the fraction of a candidate's neighbours that
//! are already neighbours of the group — so candidates in one group share
//! verification edges and foreign-vertex fetches.
//!
//! The greedy choice is kept up to date incrementally instead of being
//! recomputed over every remaining candidate for each added member: a
//! reverse index from neighbour ids to candidates credits only the
//! candidates adjacent to a vertex when it first enters the group's
//! neighbourhood, and a lazy max-heap yields the next member. The groups
//! are identical to those of the direct rescan (see [`find_region_groups`]
//! for the cost and the tie-break contract).

use std::collections::{BinaryHeap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rads_graph::VertexId;
use rads_partition::LocalPartition;

use crate::memory::{MemoryBudget, SpaceEstimator};

/// How the candidate set is split into region groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// Algorithm 3: grow each group by maximum proximity to the group.
    Proximity,
    /// Ablation baseline: random assignment respecting only the size cap.
    Random,
}

/// The proximity of `v` to the group whose united neighbourhood is
/// `group_neighborhood` (equation 5): `|adj(v) ∩ N(rg)| / |adj(v)|`.
pub fn proximity(adjacency: &[VertexId], group_neighborhood: &HashSet<VertexId>) -> f64 {
    if adjacency.is_empty() {
        return 0.0;
    }
    let shared = adjacency.iter().filter(|v| group_neighborhood.contains(v)).count();
    shared as f64 / adjacency.len() as f64
}

/// The members of `group` whose adjacency is *foreign*: not owned by this
/// machine and not already covered per `cached`. This is the round-0
/// `fetchV` set of a region group — computed both when a group starts its
/// first round and, by the async driver, one group ahead so the fetches are
/// already in flight while the previous group is still expanding. Order is
/// the group's member order; callers sort/dedup as part of batching.
pub fn foreign_members(
    local: &LocalPartition,
    group: &[VertexId],
    cached: impl Fn(VertexId) -> bool,
) -> Vec<VertexId> {
    group.iter().copied().filter(|&v| !local.owns(v) && !cached(v)).collect()
}

/// Splits `candidates` (start-vertex candidates owned by this machine) into
/// region groups.
///
/// * With [`GroupingStrategy::Proximity`], groups are grown as in Algorithm 3:
///   take the last candidate of a seeded shuffle, repeatedly add the
///   remaining candidate with the highest [`proximity`] to the group, and
///   stop when the group reaches the estimator's maximum size or the
///   estimated memory cost `φ(rg)` of one more member would exceed the
///   budget `Φ`.
/// * With [`GroupingStrategy::Random`], candidates are shuffled and chopped
///   into chunks of the same maximum size.
///
/// The proximity greedy is maintained incrementally rather than rescanning
/// every remaining candidate per added member. Each candidate's adjacency
/// is resolved once into a dense slot, and a reverse index maps every
/// neighbour id to the slots adjacent to it. When a vertex first enters
/// `N(rg)`, only the slots in its reverse list gain a shared neighbour, and
/// each is pushed onto a lazy max-heap keyed by its proximity. A group
/// therefore costs about `Σ |slots adjacent to x| · log` over the vertices
/// `x` that enter `N(rg)`, instead of `O(R² · d)` for `R` remaining
/// candidates of degree `d`; the index costs `O(E log E)` once per call,
/// for `E` adjacency entries over all candidates.
///
/// The groups are deterministic in `seed` and exactly those of the direct
/// rescan: among equal proximities the candidate at the highest position
/// of the remaining list wins (the last maximum, where removal swaps the
/// final element into the vacated position), and when no remaining
/// candidate shares a neighbour with the group the last remaining
/// candidate is taken.
///
/// Every candidate appears in exactly one group and every group is non-empty.
pub fn find_region_groups(
    local: &LocalPartition,
    candidates: &[VertexId],
    estimator: &SpaceEstimator,
    budget: &MemoryBudget,
    strategy: GroupingStrategy,
    seed: u64,
) -> Vec<Vec<VertexId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_size = estimator.max_group_size(budget);
    let mut shuffled: Vec<VertexId> = candidates.to_vec();
    shuffled.shuffle(&mut rng);
    match strategy {
        GroupingStrategy::Random => shuffled.chunks(max_size).map(<[VertexId]>::to_vec).collect(),
        GroupingStrategy::Proximity => {
            let fits = |members: usize| {
                members < max_size
                    && estimator.estimate_group_bytes(members + 1) <= budget.region_group_bytes.max(1)
            };
            ProximityGrouper::new(local, &shuffled).groups(fits)
        }
    }
}

/// Marks a candidate slot that has joined a group.
const GROUPED: u32 = u32::MAX;

/// The incremental state behind [`GroupingStrategy::Proximity`]. Candidates
/// are addressed by *slot*, their index in the shuffled candidate list.
struct ProximityGrouper<'a> {
    vertices: &'a [VertexId],
    adjacency: Vec<&'a [VertexId]>,
    /// Slots still to be grouped, in the direct rescan's list order.
    remaining: Vec<u32>,
    /// Each slot's index in `remaining`, or [`GROUPED`].
    position: Vec<u32>,
    /// Built on the first group that grows past one member.
    index: Option<ReverseIndex>,
    /// `|adj(slot) ∩ N(rg)|` for the group being grown.
    shared: Vec<u32>,
    /// Slots whose `shared` is non-zero, to reset between groups.
    touched: Vec<u32>,
    /// Per reverse-index vertex: already in `N(rg)`.
    in_neighborhood: Vec<bool>,
    /// Reverse-index vertices in `N(rg)`, to reset between groups.
    entered: Vec<u32>,
    /// `(proximity bits, position, slot)`; entries whose position or
    /// proximity has since changed are stale and skipped on pop.
    heap: BinaryHeap<(u64, u32, u32)>,
}

/// Neighbour id → candidate slots, as CSR over the distinct neighbour ids
/// of all candidates. A slot appears once per occurrence of the id in its
/// adjacency, matching [`proximity`]'s count.
struct ReverseIndex {
    /// Distinct neighbour ids, sorted.
    ids: Vec<VertexId>,
    offsets: Vec<usize>,
    slots: Vec<u32>,
}

impl ReverseIndex {
    fn build(adjacency: &[&[VertexId]]) -> Self {
        let mut pairs: Vec<(VertexId, u32)> = adjacency
            .iter()
            .enumerate()
            .flat_map(|(slot, adj)| adj.iter().map(move |&x| (x, slot as u32)))
            .collect();
        pairs.sort_unstable();
        let mut ids = Vec::new();
        let mut offsets = Vec::new();
        for (i, &(x, _)) in pairs.iter().enumerate() {
            if ids.last() != Some(&x) {
                ids.push(x);
                offsets.push(i);
            }
        }
        offsets.push(pairs.len());
        ReverseIndex { ids, offsets, slots: pairs.into_iter().map(|(_, slot)| slot).collect() }
    }
}

impl<'a> ProximityGrouper<'a> {
    fn new(local: &'a LocalPartition, shuffled: &'a [VertexId]) -> Self {
        let n = shuffled.len();
        assert!(n < GROUPED as usize, "slots are u32 values below GROUPED");
        ProximityGrouper {
            vertices: shuffled,
            adjacency: shuffled.iter().map(|&v| local.neighbors(v).unwrap_or(&[])).collect(),
            remaining: (0..n as u32).collect(),
            position: (0..n as u32).collect(),
            index: None,
            shared: vec![0; n],
            touched: Vec::new(),
            in_neighborhood: Vec::new(),
            entered: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Grows groups until every slot is grouped; `fits(k)` says whether a
    /// group of `k` members may take one more.
    fn groups(mut self, fits: impl Fn(usize) -> bool) -> Vec<Vec<VertexId>> {
        let mut groups = Vec::new();
        while let Some(first) = self.remaining.pop() {
            self.position[first as usize] = GROUPED;
            let mut group = vec![self.vertices[first as usize]];
            // A member's adjacency joins N(rg) only when another member is
            // about to be chosen, so a group that stops never pays for it.
            let mut last = first;
            while !self.remaining.is_empty() && fits(group.len()) {
                self.enter_neighborhood(last);
                last = self.take_best();
                group.push(self.vertices[last as usize]);
            }
            self.reset();
            groups.push(group);
        }
        groups
    }

    /// The slot's [`proximity`] as heap-key bits: the same `f64` the
    /// direct rescan compares, and non-negative, so the bits order as the
    /// values do.
    fn proximity_bits(&self, slot: u32) -> u64 {
        let degree = self.adjacency[slot as usize].len();
        (self.shared[slot as usize] as f64 / degree as f64).to_bits()
    }

    /// Adds `adj(member)` to `N(rg)`, crediting each remaining slot once per
    /// adjacency occurrence of every vertex that is new to `N(rg)`.
    fn enter_neighborhood(&mut self, member: u32) {
        if self.index.is_none() {
            let index = ReverseIndex::build(&self.adjacency);
            self.in_neighborhood = vec![false; index.ids.len()];
            self.index = Some(index);
        }
        let index = self.index.as_ref().expect("built above");
        for &x in self.adjacency[member as usize] {
            let id = index.ids.binary_search(&x).expect("every candidate neighbour is indexed");
            if std::mem::replace(&mut self.in_neighborhood[id], true) {
                continue;
            }
            self.entered.push(id as u32);
            for &slot in &index.slots[index.offsets[id]..index.offsets[id + 1]] {
                let position = self.position[slot as usize];
                if position == GROUPED {
                    continue;
                }
                if self.shared[slot as usize] == 0 {
                    self.touched.push(slot);
                }
                self.shared[slot as usize] += 1;
                self.heap.push((self.proximity_bits(slot), position, slot));
            }
        }
    }

    /// Removes and returns the remaining slot with the highest proximity
    /// (ties: highest position), or the last remaining slot if none shares a
    /// neighbour with the group.
    fn take_best(&mut self) -> u32 {
        let position = loop {
            match self.heap.peek() {
                Some(&(bits, position, slot))
                    if self.position[slot as usize] == position && self.proximity_bits(slot) == bits =>
                {
                    break position as usize;
                }
                Some(_) => {
                    self.heap.pop();
                }
                None => break self.remaining.len() - 1,
            }
        };
        let best = self.remaining.swap_remove(position);
        self.position[best as usize] = GROUPED;
        if let Some(&moved) = self.remaining.get(position) {
            self.position[moved as usize] = position as u32;
            if self.shared[moved as usize] > 0 {
                self.heap.push((self.proximity_bits(moved), position as u32, moved));
            }
        }
        best
    }

    /// Clears the per-group state, touching only what the group touched.
    fn reset(&mut self) {
        for slot in self.touched.drain(..) {
            self.shared[slot as usize] = 0;
        }
        for id in self.entered.drain(..) {
            self.in_neighborhood[id as usize] = false;
        }
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::{barabasi_albert, community_graph};
    use rads_graph::{Graph, GraphBuilder};
    use rads_partition::{
        BfsPartitioner, HashPartitioner, LabelPropagationPartitioner, Partitioner, Partitioning,
        PartitionedGraph,
    };

    fn single_machine_partition(graph: &rads_graph::Graph) -> PartitionedGraph {
        PartitionedGraph::build(graph, Partitioning::single_machine(graph.vertex_count()))
    }

    /// Algorithm 3 as a direct rescan: every added member recomputes the
    /// proximity of every remaining candidate. The oracle for the
    /// incremental [`find_region_groups`].
    fn rescan_groups(
        local: &LocalPartition,
        candidates: &[VertexId],
        estimator: &SpaceEstimator,
        budget: &MemoryBudget,
        seed: u64,
    ) -> Vec<Vec<VertexId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_size = estimator.max_group_size(budget);
        let mut remaining: Vec<VertexId> = candidates.to_vec();
        remaining.shuffle(&mut rng);
        let mut groups = Vec::new();
        while let Some(first) = remaining.pop() {
            let mut group = vec![first];
            let mut neighborhood: HashSet<VertexId> =
                local.neighbors(first).map(|n| n.iter().copied().collect()).unwrap_or_default();
            while !remaining.is_empty()
                && group.len() < max_size
                && estimator.estimate_group_bytes(group.len() + 1) <= budget.region_group_bytes.max(1)
            {
                let (best_idx, _) = remaining
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i, proximity(local.neighbors(v).unwrap_or(&[]), &neighborhood)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("remaining is non-empty");
                let v = remaining.swap_remove(best_idx);
                if let Some(adj) = local.neighbors(v) {
                    neighborhood.extend(adj.iter().copied());
                }
                group.push(v);
            }
            groups.push(group);
        }
        groups
    }

    /// Groups `candidates` with [`find_region_groups`], asserting that the
    /// result equals the rescan oracle's.
    fn assert_matches_oracle(
        local: &LocalPartition,
        candidates: &[VertexId],
        estimator: &SpaceEstimator,
        budget: &MemoryBudget,
        seed: u64,
    ) -> Vec<Vec<VertexId>> {
        let expected = rescan_groups(local, candidates, estimator, budget, seed);
        let actual =
            find_region_groups(local, candidates, estimator, budget, GroupingStrategy::Proximity, seed);
        assert_eq!(
            actual, expected,
            "seed {seed}, budget {}, {} candidates",
            budget.region_group_bytes,
            candidates.len()
        );
        actual
    }

    /// Whether the byte estimate, not the estimator's maximum group size,
    /// is what stops groups over `candidates` under `budget`.
    fn bytes_bind(estimator: &SpaceEstimator, budget: &MemoryBudget, candidates: usize) -> bool {
        let max_size = estimator.max_group_size(budget).min(candidates);
        (1..max_size)
            .any(|k| estimator.estimate_group_bytes(k + 1) > budget.region_group_bytes.max(1))
    }

    /// A community graph and a power-law graph, each with isolated vertices
    /// appended so some candidates have no neighbours at all.
    fn oracle_graphs() -> Vec<Graph> {
        let with_isolated = |g: Graph, extra: usize| {
            let mut b = GraphBuilder::new(g.vertex_count() + extra);
            for (u, v) in g.edges() {
                b.add_edge(u, v);
            }
            b.build()
        };
        vec![
            with_isolated(community_graph(5, 16, 0.4, 0.04, 5), 9),
            with_isolated(barabasi_albert(110, 3, 8), 7),
        ]
    }

    #[test]
    fn incremental_grouping_matches_the_rescan_oracle() {
        // (trie nodes, candidates) for SpaceEstimator::from_sme, each with
        // budgets from 1 byte to unlimited plus those just around k whole
        // candidates. The last estimator is so large that the float byte
        // estimate, not the integer size cap, stops its groups.
        let node = crate::trie::EmbeddingTrie::NODE_BYTES;
        let huge = 100_000_000_000_000_001u64;
        let cases_by_estimator: Vec<(SpaceEstimator, Vec<usize>)> =
            [(10, 1), (31, 3), (100, 7), (7, 6), (1000, 3), (huge, 1)]
                .iter()
                .map(|&(nodes, candidates)| {
                    let mut budgets = vec![0, 1, node - 1, node, 4096, 1 << 20, usize::MAX];
                    let per_candidate = nodes as f64 / candidates as f64 * node as f64;
                    for k in [2.0, 3.0, 8.0, 40.0] {
                        let exact = per_candidate * k;
                        if exact < usize::MAX as f64 / 2.0 {
                            let floor = exact.floor() as usize;
                            let ceil = exact.ceil() as usize;
                            budgets.extend([floor.saturating_sub(256), floor - 1, floor, ceil]);
                        }
                    }
                    (SpaceEstimator::from_sme(nodes, candidates), budgets)
                })
                .collect();
        let (mut cases, mut bytes_stopped, mut grown) = (0, 0, 0);
        for graph in oracle_graphs() {
            let n = graph.vertex_count();
            let partitionings = vec![
                Partitioning::single_machine(n),
                HashPartitioner.partition(&graph, 3),
                BfsPartitioner.partition(&graph, 4),
                LabelPropagationPartitioner::default().partition(&graph, 2),
            ];
            for partitioning in partitionings {
                let pg = PartitionedGraph::build(&graph, partitioning);
                for local in pg.locals() {
                    let owned = local.owned_vertices();
                    // every owned vertex, and a sparse subset
                    let subset: Vec<VertexId> = owned.iter().copied().filter(|v| v % 3 != 1).collect();
                    for candidates in [owned.to_vec(), subset] {
                        for (estimator, budgets) in &cases_by_estimator {
                            for &bytes in budgets {
                                let budget = MemoryBudget { region_group_bytes: bytes, ..Default::default() };
                                bytes_stopped += usize::from(bytes_bind(estimator, &budget, candidates.len()));
                                for seed in 0..2 {
                                    let seed = (seed * 0x9e37_79b9) ^ bytes as u64;
                                    let groups =
                                        assert_matches_oracle(local, &candidates, estimator, &budget, seed);
                                    grown += usize::from(groups.iter().any(|g| g.len() > 2));
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(bytes_stopped > 0, "no budget where the byte estimate stops a group");
        assert!(grown > cases / 4, "too few cases grow multi-member groups: {grown} of {cases}");
    }

    #[test]
    fn incremental_grouping_matches_the_oracle_across_many_seeds() {
        let graph = barabasi_albert(300, 2, 3);
        let pg = PartitionedGraph::build(&graph, HashPartitioner.partition(&graph, 2));
        let local = pg.local(1);
        let estimator = SpaceEstimator::from_sme(50, 4);
        for bytes in [300, 3000, usize::MAX] {
            let budget = MemoryBudget { region_group_bytes: bytes, ..Default::default() };
            for seed in 0..200 {
                assert_matches_oracle(local, local.owned_vertices(), &estimator, &budget, seed);
            }
        }
    }

    #[test]
    fn proximity_definition() {
        let nbh: HashSet<VertexId> = [1, 2, 3].into_iter().collect();
        assert!((proximity(&[1, 2, 9, 10], &nbh) - 0.5).abs() < 1e-9);
        assert_eq!(proximity(&[], &nbh), 0.0);
        assert_eq!(proximity(&[7], &nbh), 0.0);
        assert_eq!(proximity(&[1], &nbh), 1.0);
    }

    #[test]
    fn groups_partition_the_candidates() {
        let g = community_graph(4, 10, 0.5, 0.02, 1);
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(400, 40); // 10 nodes per candidate
        let budget = MemoryBudget { region_group_bytes: 10 * crate::trie::EmbeddingTrie::NODE_BYTES * 8, ..Default::default() };
        for strategy in [GroupingStrategy::Proximity, GroupingStrategy::Random] {
            let groups =
                find_region_groups(local, &candidates, &estimator, &budget, strategy, 7);
            let mut seen: Vec<VertexId> = groups.iter().flatten().copied().collect();
            seen.sort_unstable();
            let mut expected = candidates.clone();
            expected.sort_unstable();
            assert_eq!(seen, expected, "{strategy:?} lost or duplicated candidates");
            assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= 8), "{strategy:?}");
        }
    }

    #[test]
    fn proximity_grouping_keeps_communities_together() {
        // Two well-separated cliques; with a group capacity equal to the
        // clique size, proximity grouping should produce groups that stay
        // within one clique, while random grouping usually mixes them.
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6u32 {
                for j in i + 1..6 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        // one weak link between the cliques
        b.add_edge(0, 6);
        let g = b.build();
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(120, 12); // 10 nodes/candidate
        let budget = MemoryBudget { region_group_bytes: 10 * crate::trie::EmbeddingTrie::NODE_BYTES * 6, ..Default::default() };
        let groups = find_region_groups(
            local,
            &candidates,
            &estimator,
            &budget,
            GroupingStrategy::Proximity,
            3,
        );
        assert_eq!(groups.len(), 2);
        for group in &groups {
            let left = group.iter().filter(|&&v| v < 6).count();
            let right = group.len() - left;
            assert!(
                left == 0 || right == 0 || left == 1 || right == 1,
                "group {group:?} mixes the two cliques"
            );
        }
    }

    #[test]
    fn tiny_budget_yields_singleton_groups() {
        let g = community_graph(2, 5, 0.6, 0.1, 2);
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(1000, 10);
        let budget = MemoryBudget { region_group_bytes: 1, ..Default::default() };
        let groups = find_region_groups(
            local,
            &candidates,
            &estimator,
            &budget,
            GroupingStrategy::Proximity,
            0,
        );
        assert_eq!(groups.len(), candidates.len());
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn empty_candidate_set_gives_no_groups() {
        let g = community_graph(1, 5, 0.5, 0.0, 2);
        let pg = single_machine_partition(&g);
        let groups = find_region_groups(
            pg.local(0),
            &[],
            &SpaceEstimator::from_sme(10, 1),
            &MemoryBudget::default(),
            GroupingStrategy::Proximity,
            0,
        );
        assert!(groups.is_empty());
    }
}
