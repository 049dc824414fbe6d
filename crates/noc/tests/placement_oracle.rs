//! The indexed placement search's contract: the same `Placement` as a
//! full-recompute search, on every input. The reference searches below
//! follow the same scan orders and tie rules but price every candidate
//! by rebuilding a node → coordinate map and re-summing every traffic
//! edge. Random instances cover 1..64 nodes, spare routers, duplicate,
//! self and zero-byte edges, tie-heavy byte counts, byte counts whose
//! `bytes × hops` overflows `u64` (the references sum in `u128`), and
//! several RNG seeds and restart counts.

use hic_fabric::{KernelId, MemoryId};
use hic_noc::placement::{place_exhaustive, place_greedy, NocNode, Placement, Traffic};
use hic_noc::topology::{Coord, Mesh};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

fn reference_exhaustive(mesh: Mesh, nodes: &[NocNode], traffic: &Traffic) -> Placement {
    assert!(mesh.len() >= nodes.len());
    let slots: Vec<Coord> = (0..mesh.len()).map(|i| mesh.coord(i)).collect();
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    let mut best: Option<(u128, Placement)> = None;
    permute(&mut order, 0, &mut |perm| {
        let placement = Placement {
            mesh,
            slots: nodes
                .iter()
                .zip(perm.iter())
                .map(|(&n, &s)| (n, slots[s]))
                .collect(),
        };
        let c = wide_cost(&placement, traffic);
        if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
            best = Some((c, placement));
        }
    });
    best.expect("at least one permutation").1
}

fn permute(order: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == order.len() {
        visit(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute(order, k + 1, visit);
        order.swap(k, i);
    }
}

fn reference_greedy(
    mesh: Mesh,
    nodes: &[NocNode],
    traffic: &Traffic,
    rng: &mut impl Rng,
    restarts: usize,
) -> Placement {
    assert!(mesh.len() >= nodes.len());
    let all_slots: Vec<Coord> = (0..mesh.len()).map(|i| mesh.coord(i)).collect();
    let mut best: Option<(u128, Placement)> = None;

    for _ in 0..restarts.max(1) {
        let mut slots = all_slots.clone();
        slots.shuffle(rng);
        let mut assign: Vec<Coord> = slots[..nodes.len()].to_vec();
        let mut cost = cost_of(mesh, nodes, &assign, traffic);
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..nodes.len() {
                for &target in &all_slots {
                    if assign[i] == target {
                        continue;
                    }
                    let mut cand = assign.clone();
                    if let Some(j) = cand.iter().position(|&c| c == target) {
                        cand.swap(i, j);
                    } else {
                        cand[i] = target;
                    }
                    let c = cost_of(mesh, nodes, &cand, traffic);
                    if c < cost {
                        cost = c;
                        assign = cand;
                        improved = true;
                    }
                }
            }
        }
        let placement = Placement {
            mesh,
            slots: nodes.iter().copied().zip(assign.iter().copied()).collect(),
        };
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, placement));
        }
    }
    best.expect("restarts >= 1").1
}

fn cost_of(mesh: Mesh, nodes: &[NocNode], assign: &[Coord], traffic: &Traffic) -> u128 {
    let idx: BTreeMap<NocNode, Coord> = nodes.iter().copied().zip(assign.iter().copied()).collect();
    traffic
        .iter()
        .map(|&(a, b, bytes)| u128::from(bytes) * mesh.route(idx[&a], idx[&b]).len() as u128)
        .sum()
}

/// [`Placement::cost`] summed in `u128`, exact for any `u64` byte counts.
fn wide_cost(p: &Placement, traffic: &Traffic) -> u128 {
    traffic
        .iter()
        .map(|&(a, b, bytes)| {
            u128::from(bytes) * p.mesh.route(p.coord(a), p.coord(b)).len() as u128
        })
        .sum()
}

/// `n` distinct nodes, kernels and memories interleaved by `kinds` and
/// listed out of `Ord` order, so index order and map order differ.
fn nodes_of(n: usize, kinds: &[bool]) -> Vec<NocNode> {
    (0..n)
        .map(|i| {
            let id = ((n - i) * 37 % 101) as u32;
            if kinds[i % kinds.len()] {
                NocNode::Kernel(KernelId::new(id))
            } else {
                NocNode::Memory(MemoryId::new(id))
            }
        })
        .collect()
}

/// Traffic over `nodes` from raw `(a, b, bytes)` draws, with the first
/// `dups` edges repeated.
fn traffic_of(nodes: &[NocNode], raw: &[(usize, usize, u64)], dups: usize) -> Traffic {
    let n = nodes.len();
    let mut t: Traffic = raw
        .iter()
        .map(|&(a, b, bytes)| (nodes[a % n], nodes[b % n], bytes))
        .collect();
    let repeat: Traffic = t.iter().take(dups).copied().collect();
    t.extend(repeat);
    t
}

fn bytes() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..16, 1u64..1_000_000, 1u64..(1 << 40)]
}

fn edges() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..64, 0usize..64, bytes()), 0..48)
}

/// Bytes in {0, 1, 2}: many placements tie, so the first-minimum rule
/// decides the result.
fn tie_edges() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..64, 0usize..64, 0u64..3), 0..32)
}

/// Byte counts near `u64::MAX`, mixed with small ones: a single edge of
/// two or more hops overflows `u64`.
fn huge_edges() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    let bytes = prop_oneof![1u64..16, (1u64 << 62)..u64::MAX];
    proptest::collection::vec((0usize..64, 0usize..64, bytes), 1..32)
}

/// Every node on a distinct router of the mesh.
fn assert_injective(p: &Placement) {
    let mut coords: Vec<Coord> = p.slots.values().copied().collect();
    assert!(coords.iter().all(|&c| p.mesh.contains(c)));
    coords.sort();
    coords.dedup();
    assert_eq!(coords.len(), p.slots.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_matches_the_full_recompute_reference(
        n in 1usize..32,
        spare in 0usize..4,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in edges(),
        dups in 0usize..4,
        seed in any::<u64>(),
        restarts in 0usize..9,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, dups);
        let mesh = Mesh::at_least(n + spare);
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        let fast = place_greedy(mesh, &nodes, &traffic, &mut fast_rng, restarts);
        let slow = reference_greedy(mesh, &nodes, &traffic, &mut slow_rng, restarts);
        prop_assert_eq!(&fast, &slow);
        // Both consumed the same random draws.
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        assert_injective(&fast);
    }

    #[test]
    fn greedy_result_is_a_local_minimum(
        n in 1usize..24,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in edges(),
        dups in 0usize..4,
        seed in any::<u64>(),
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, dups);
        let mesh = Mesh::at_least(n);
        let p = place_greedy(mesh, &nodes, &traffic, &mut StdRng::seed_from_u64(seed), 8);
        let cost = p.cost(&traffic);
        let by_coord: BTreeMap<Coord, NocNode> = p.slots.iter().map(|(&n, &c)| (c, n)).collect();
        for &node in &nodes {
            let from = p.coord(node);
            for s in 0..mesh.len() {
                let to = mesh.coord(s);
                if to == from {
                    continue;
                }
                let mut cand = p.clone();
                cand.slots.insert(node, to);
                if let Some(&other) = by_coord.get(&to) {
                    cand.slots.insert(other, from);
                }
                prop_assert!(
                    cand.cost(&traffic) >= cost,
                    "moving {} to {} lowers the cost below {}", node, to, cost
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exhaustive_matches_the_full_recompute_reference(
        n in 1usize..9,
        spare in 0usize..3,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in edges(),
        dups in 0usize..4,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, dups);
        let mesh = Mesh::at_least(n + spare);
        let fast = place_exhaustive(mesh, &nodes, &traffic);
        prop_assert_eq!(&fast, &reference_exhaustive(mesh, &nodes, &traffic));
        assert_injective(&fast);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exhaustive_keeps_the_first_minimum_among_ties(
        n in 6usize..9,
        spare in 0usize..3,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in tie_edges(),
        dups in 0usize..4,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, dups);
        let mesh = Mesh::at_least(n + spare);
        let fast = place_exhaustive(mesh, &nodes, &traffic);
        prop_assert_eq!(&fast, &reference_exhaustive(mesh, &nodes, &traffic));
    }

    #[test]
    fn exhaustive_matches_at_seven_and_eight_nodes_with_spare_routers(
        n in 7usize..9,
        spare in 1usize..3,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in edges(),
        dups in 0usize..4,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, dups);
        let mesh = Mesh::at_least(n + spare);
        prop_assert!(mesh.len() > n);
        let fast = place_exhaustive(mesh, &nodes, &traffic);
        prop_assert_eq!(&fast, &reference_exhaustive(mesh, &nodes, &traffic));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exhaustive_is_exact_when_bytes_times_hops_overflows_u64(
        n in 2usize..9,
        spare in 0usize..3,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in huge_edges(),
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, 0);
        let mesh = Mesh::at_least(n + spare);
        let fast = place_exhaustive(mesh, &nodes, &traffic);
        prop_assert_eq!(&fast, &reference_exhaustive(mesh, &nodes, &traffic));
    }

    #[test]
    fn greedy_is_exact_when_bytes_times_hops_overflows_u64(
        n in 1usize..32,
        spare in 0usize..4,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in huge_edges(),
        seed in any::<u64>(),
        restarts in 0usize..9,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, 0);
        let mesh = Mesh::at_least(n + spare);
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        let fast = place_greedy(mesh, &nodes, &traffic, &mut fast_rng, restarts);
        let slow = reference_greedy(mesh, &nodes, &traffic, &mut slow_rng, restarts);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn greedy_matches_the_reference_up_to_64_nodes(
        n in 32usize..65,
        spare in 0usize..4,
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        raw in proptest::collection::vec((0usize..64, 0usize..64, bytes()), 0..96),
        seed in any::<u64>(),
        restarts in 1usize..3,
    ) {
        let nodes = nodes_of(n, &kinds);
        let traffic = traffic_of(&nodes, &raw, 0);
        let mesh = Mesh::at_least(n + spare);
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        let fast = place_greedy(mesh, &nodes, &traffic, &mut fast_rng, restarts);
        let slow = reference_greedy(mesh, &nodes, &traffic, &mut slow_rng, restarts);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        assert_injective(&fast);
    }
}
