//! Placement of kernels and local memories onto mesh routers.
//!
//! The paper's rule: "a kernel and its communicating local memories should
//! be mapped to the NoC routers in such a way that the distance of these
//! routers is shortest" — ideally adjacent. We solve the general problem:
//! given the traffic matrix between NoC nodes, find the assignment of nodes
//! to router coordinates minimizing total `bytes × hops` (the length of
//! [`Mesh::route`]). Up to 8 nodes (the sizes the paper's applications
//! produce) an exhaustive search over the first `n` router slots finds the
//! cheapest assignment to those slots; it never tries a mesh's spare
//! routers, so it is not always optimal over the whole mesh. Beyond that,
//! greedy move-or-swap descent with random restarts. Both search over
//! dense node and slot indices: the exhaustive search is a branch and
//! bound that skips subtrees no cheaper than its best so far, and greedy
//! prices each candidate move by its cost delta over the edges of the
//! nodes it moves.

use crate::topology::{Coord, Mesh};
use hic_fabric::{KernelId, MemoryId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A node attached to the NoC: a kernel datapath (through a kernel NA) or a
/// local memory (through a memory NA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NocNode {
    /// A hardware kernel.
    Kernel(KernelId),
    /// A local memory.
    Memory(MemoryId),
}

impl fmt::Display for NocNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocNode::Kernel(k) => write!(f, "kernel {k}"),
            NocNode::Memory(m) => write!(f, "mem {m}"),
        }
    }
}

/// Traffic between two NoC nodes, in bytes per application run.
pub type Traffic = Vec<(NocNode, NocNode, u64)>;

/// An assignment of NoC nodes to router coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The mesh the nodes are placed on.
    pub mesh: Mesh,
    /// Node → router coordinate.
    pub slots: BTreeMap<NocNode, Coord>,
}

impl Placement {
    /// Coordinate of a node.
    ///
    /// # Panics
    /// If the node was not placed.
    pub fn coord(&self, n: NocNode) -> Coord {
        self.slots[&n]
    }

    /// Total cost `Σ bytes × hops` of a traffic matrix under this
    /// placement.
    pub fn cost(&self, traffic: &Traffic) -> u64 {
        traffic
            .iter()
            .map(|&(a, b, bytes)| {
                bytes * self.mesh.route(self.coord(a), self.coord(b)).len() as u64
            })
            .sum()
    }

    /// Mean hop distance over traffic pairs, weighted by bytes.
    pub fn mean_hops(&self, traffic: &Traffic) -> f64 {
        let bytes: u64 = traffic.iter().map(|t| t.2).sum();
        if bytes == 0 {
            return 0.0;
        }
        self.cost(traffic) as f64 / bytes as f64
    }
}

/// Place `nodes` on the smallest mesh that holds them, minimizing
/// `Σ bytes × hops` over `traffic`.
///
/// Instances of up to 8 nodes use [`place_exhaustive`] (a branch and
/// bound over at most 8! = 40320 assignments); larger instances use
/// [`place_greedy`] with 8 random restarts (deterministic for a given
/// `rng`).
///
/// # Panics
/// If `nodes` is empty, names a node twice, or `traffic` names a node not
/// in `nodes`.
pub fn place(nodes: &[NocNode], traffic: &Traffic, rng: &mut impl Rng) -> Placement {
    assert!(!nodes.is_empty(), "cannot place zero nodes");
    let mesh = Mesh::at_least(nodes.len());
    if nodes.len() <= 8 {
        place_exhaustive(mesh, nodes, traffic)
    } else {
        place_greedy(mesh, nodes, traffic, rng, 8)
    }
}

/// A placement instance over dense indices: node `i` is `nodes[i]`, slot
/// `s` is the router `mesh.coord(s)`. Built once per placement call, so
/// pricing a candidate never touches a map.
struct Problem {
    /// The mesh whose routers are the slots.
    mesh: Mesh,
    /// Traffic edges as `(a, b, bytes)` node indices.
    edges: Vec<(usize, usize, u64)>,
    /// Per node, `(neighbour, bytes)` of every edge to another node that
    /// carries bytes; self edges and empty edges never change the cost.
    adj: Vec<Vec<(usize, u64)>>,
    /// `slots × slots` hop counts, row-major.
    hops: Vec<u32>,
}

impl Problem {
    fn new(mesh: Mesh, nodes: &[NocNode], traffic: &Traffic) -> Problem {
        assert!(mesh.len() >= nodes.len());
        let mut index = BTreeMap::new();
        for (i, &n) in nodes.iter().enumerate() {
            assert!(
                index.insert(n, i).is_none(),
                "{n} is listed twice among the nodes to place"
            );
        }
        let at = |n: NocNode| match index.get(&n) {
            Some(&i) => i,
            None => panic!("traffic names {n}, which is not among the nodes to place"),
        };
        let edges: Vec<(usize, usize, u64)> = traffic
            .iter()
            .map(|&(a, b, bytes)| (at(a), at(b), bytes))
            .collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for &(a, b, bytes) in &edges {
            if a != b && bytes > 0 {
                adj[a].push((b, bytes));
                adj[b].push((a, bytes));
            }
        }
        let coords: Vec<Coord> = (0..mesh.len()).map(|s| mesh.coord(s)).collect();
        let hops = coords
            .iter()
            .flat_map(|&p| coords.iter().map(move |&q| mesh.route(p, q).len() as u32))
            .collect();
        Problem {
            mesh,
            edges,
            adj,
            hops,
        }
    }

    fn nodes(&self) -> usize {
        self.adj.len()
    }

    fn hop(&self, p: usize, q: usize) -> i128 {
        i128::from(self.hops[p * self.mesh.len() + q])
    }

    /// `Σ bytes × hops` with node `i` on slot `pos[i]`.
    fn cost(&self, pos: &[usize]) -> i128 {
        self.edges
            .iter()
            .map(|&(a, b, bytes)| i128::from(bytes) * self.hop(pos[a], pos[b]))
            .sum()
    }

    /// Cost change when node `i` moves to slot `to` and the slot's occupant
    /// `j`, if any, takes `i`'s old slot. Only the edges of `i` and `j`
    /// are visited; an edge between them keeps its length.
    fn move_delta(&self, pos: &[usize], i: usize, to: usize, j: Option<usize>) -> i128 {
        let from = pos[i];
        let mut delta = self.shift(pos, i, from, to, j);
        if let Some(j) = j {
            delta += self.shift(pos, j, to, from, Some(i));
        }
        delta
    }

    /// Cost change of `v`'s edges, except those to `partner`, when `v`
    /// moves from slot `from` to slot `to`.
    fn shift(
        &self,
        pos: &[usize],
        v: usize,
        from: usize,
        to: usize,
        partner: Option<usize>,
    ) -> i128 {
        self.adj[v]
            .iter()
            .filter(|&&(w, _)| Some(w) != partner)
            .map(|&(w, bytes)| i128::from(bytes) * (self.hop(to, pos[w]) - self.hop(from, pos[w])))
            .sum()
    }

    fn placement(&self, nodes: &[NocNode], pos: &[usize]) -> Placement {
        Placement {
            mesh: self.mesh,
            slots: nodes
                .iter()
                .zip(pos)
                .map(|(&n, &s)| (n, self.mesh.coord(s)))
                .collect(),
        }
    }
}

/// Minimum-cost placement over the first `n` router slots of `mesh`; the
/// first minimum in permutation order wins.
///
/// The permutations are those of a swap-order enumeration: depth `k`
/// puts node `k` on each slot not yet taken, in turn. The search walks
/// that tree depth-first, adding each node's edges to earlier nodes as
/// it is placed, and skips a subtree when the partial cost plus the
/// bytes of every edge not yet placed (each at least one hop, since
/// nodes sit on distinct routers) is no cheaper than the best complete
/// assignment so far. A complete assignment replaces the best only when
/// strictly cheaper, so the result is the one a full enumeration keeps.
///
/// Slots past the first `n` are never tried. `Mesh::at_least` leaves
/// spare routers at 3, 5, 7 and 8 nodes (one or two of a 2×2, 3×2 or 3×3
/// mesh). At 3 nodes the symmetry of the 2×2 mesh makes any three slots
/// equivalent; from 5 nodes on, the result is optimal over the slots
/// tried, not necessarily over the mesh.
///
/// Adds the number of complete assignments priced to the
/// `noc.place.exhaustive_leaves` counter of [`hic_obs::global`].
///
/// # Panics
/// If `mesh` is smaller than `nodes`, `nodes` names a node twice, or
/// `traffic` names a node not in `nodes`.
pub fn place_exhaustive(mesh: Mesh, nodes: &[NocNode], traffic: &Traffic) -> Placement {
    let problem = Problem::new(mesh, nodes, traffic);
    let (pos, leaves) = BranchAndBound::run(&problem);
    hic_obs::global()
        .counter("noc.place.exhaustive_leaves")
        .add(leaves);
    problem.placement(nodes, &pos)
}

/// The state of [`place_exhaustive`]'s depth-first search.
struct BranchAndBound<'a> {
    problem: &'a Problem,
    /// Per node `k`, `(w, bytes)` for each earlier node `w < k` it
    /// exchanges bytes with.
    back: Vec<Vec<(usize, i128)>>,
    /// Per node `k`, the bytes of every edge still unplaced once nodes
    /// `0..=k` sit: a lower bound on what those edges add.
    rest: Vec<i128>,
    /// Node → slot; `order[..k]` is fixed at depth `k`.
    order: Vec<usize>,
    /// The cheapest complete assignment so far, first on ties.
    best: Option<(i128, Vec<usize>)>,
    /// Complete assignments priced.
    leaves: u64,
}

impl<'a> BranchAndBound<'a> {
    /// The best node → slot assignment and the complete assignments
    /// priced to find it.
    fn run(problem: &'a Problem) -> (Vec<usize>, u64) {
        let n = problem.nodes();
        let back: Vec<Vec<(usize, i128)>> = problem
            .adj
            .iter()
            .enumerate()
            .map(|(k, row)| {
                row.iter()
                    .filter(|&&(w, _)| w < k)
                    .map(|&(w, bytes)| (w, i128::from(bytes)))
                    .collect()
            })
            .collect();
        let mut rest = vec![0; n];
        for k in (0..n.saturating_sub(1)).rev() {
            rest[k] = rest[k + 1] + back[k + 1].iter().map(|&(_, b)| b).sum::<i128>();
        }
        let mut search = BranchAndBound {
            problem,
            back,
            rest,
            order: (0..n).collect(),
            best: None,
            leaves: 0,
        };
        search.descend(0, 0);
        let (_, pos) = search.best.expect("at least one permutation");
        (pos, search.leaves)
    }

    fn descend(&mut self, k: usize, partial: i128) {
        let n = self.order.len();
        if k == n {
            // Only a complete assignment strictly cheaper than the best
            // gets past the bound below.
            self.best = Some((partial, self.order.clone()));
            return;
        }
        for i in k..n {
            self.order.swap(k, i);
            let slot = self.order[k];
            let c = partial
                + self.back[k]
                    .iter()
                    .map(|&(w, bytes)| bytes * self.problem.hop(slot, self.order[w]))
                    .sum::<i128>();
            if k + 1 == n {
                self.leaves += 1;
            }
            if self
                .best
                .as_ref()
                .is_none_or(|&(bc, _)| c + self.rest[k] < bc)
            {
                self.descend(k + 1, c);
            }
            self.order.swap(k, i);
        }
    }
}

/// Greedy move-or-swap descent from `restarts` random initial assignments;
/// the cheapest descent wins, the first on ties.
///
/// Each restart shuffles the slot indices and places node `i` on the
/// `i`-th. It then scans node `i`, then slot `s`, moving `i` to `s` (and
/// the occupant of `s`, if any, to `i`'s slot) whenever that strictly
/// lowers the cost, until a full scan accepts nothing. A candidate is
/// priced by its cost delta over the edges of the two nodes it moves.
///
/// Adds the number of accepted moves to the `noc.place.greedy_moves`
/// counter of [`hic_obs::global`].
///
/// # Panics
/// If `mesh` is smaller than `nodes`, `nodes` names a node twice, or
/// `traffic` names a node not in `nodes`.
pub fn place_greedy(
    mesh: Mesh,
    nodes: &[NocNode],
    traffic: &Traffic,
    rng: &mut impl Rng,
    restarts: usize,
) -> Placement {
    let problem = Problem::new(mesh, nodes, traffic);
    let n = nodes.len();
    let mut best: Option<(i128, Vec<usize>)> = None;
    let mut moves = 0u64;

    for _ in 0..restarts.max(1) {
        let mut order: Vec<usize> = (0..mesh.len()).collect();
        order.shuffle(rng);
        let mut pos: Vec<usize> = order[..n].to_vec();
        let mut occ: Vec<Option<usize>> = vec![None; mesh.len()];
        for (i, &s) in pos.iter().enumerate() {
            occ[s] = Some(i);
        }
        let mut cost = problem.cost(&pos);
        // Descent until no improving move exists. Moves also target unused
        // slots, letting nodes migrate into empty corners.
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..n {
                for s in 0..mesh.len() {
                    if pos[i] == s {
                        continue;
                    }
                    let j = occ[s];
                    let delta = problem.move_delta(&pos, i, s, j);
                    if delta < 0 {
                        let from = pos[i];
                        pos[i] = s;
                        occ[s] = Some(i);
                        occ[from] = j;
                        if let Some(j) = j {
                            pos[j] = from;
                        }
                        cost += delta;
                        moves += 1;
                        improved = true;
                    }
                }
            }
        }
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, pos));
        }
    }
    hic_obs::global()
        .counter("noc.place.greedy_moves")
        .add(moves);
    let (_, pos) = best.expect("restarts >= 1");
    problem.placement(nodes, &pos)
}

/// A placement that ignores traffic (nodes in index order). The ablation
/// baseline for the optimizer.
pub fn place_naive(nodes: &[NocNode]) -> Placement {
    let mesh = Mesh::at_least(nodes.len());
    Placement {
        mesh,
        slots: nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, mesh.coord(i)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k(i: u32) -> NocNode {
        NocNode::Kernel(KernelId::new(i))
    }
    fn m(i: u32) -> NocNode {
        NocNode::Memory(MemoryId::new(i))
    }

    #[test]
    fn heavy_pair_is_placed_adjacent() {
        let nodes = vec![k(0), k(1), m(0), m(1)];
        let traffic = vec![(k(0), m(1), 1_000_000), (k(1), m(0), 1)];
        let mut rng = StdRng::seed_from_u64(1);
        let p = place(&nodes, &traffic, &mut rng);
        assert_eq!(p.mesh.route(p.coord(k(0)), p.coord(m(1))).len(), 1);
    }

    #[test]
    fn exhaustive_beats_or_matches_naive() {
        let nodes = vec![k(0), k(1), k(2), m(0), m(1), m(2)];
        let traffic = vec![
            (k(0), m(1), 500),
            (k(1), m(2), 400),
            (k(2), m(0), 300),
            (k(0), m(2), 100),
        ];
        let naive = place_naive(&nodes);
        let opt = place_exhaustive(naive.mesh, &nodes, &traffic);
        assert!(opt.cost(&traffic) <= naive.cost(&traffic));
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let nodes = vec![k(0), k(1), m(0), m(1)];
        let traffic = vec![
            (k(0), m(0), 10),
            (k(0), m(1), 90),
            (k(1), m(0), 80),
            (k(1), m(1), 20),
        ];
        let mesh = Mesh::at_least(nodes.len());
        let exact = place_exhaustive(mesh, &nodes, &traffic);
        let mut rng = StdRng::seed_from_u64(42);
        let greedy = place_greedy(mesh, &nodes, &traffic, &mut rng, 8);
        assert_eq!(greedy.cost(&traffic), exact.cost(&traffic));
    }

    #[test]
    fn large_instance_uses_greedy_and_is_sane() {
        let nodes: Vec<NocNode> = (0..10).map(k).collect();
        // A ring of heavy traffic.
        let traffic: Traffic = (0..10).map(|i| (k(i), k((i + 1) % 10), 100)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let p = place(&nodes, &traffic, &mut rng);
        let naive = place_naive(&nodes);
        assert!(p.cost(&traffic) <= naive.cost(&traffic));
        // All nodes placed on distinct routers.
        let mut coords: Vec<Coord> = p.slots.values().copied().collect();
        coords.sort();
        coords.dedup();
        assert_eq!(coords.len(), nodes.len());
    }

    #[test]
    fn zero_traffic_mean_hops_is_zero() {
        let nodes = vec![k(0), k(1)];
        let p = place_naive(&nodes);
        assert_eq!(p.mean_hops(&vec![]), 0.0);
    }

    #[test]
    #[should_panic(expected = "kernel K1 is listed twice among the nodes to place")]
    fn duplicate_node_panics_naming_it() {
        let nodes = vec![k(0), k(1), m(0), k(1)];
        place_exhaustive(Mesh::at_least(4), &nodes, &vec![(k(0), m(0), 5)]);
    }

    #[test]
    #[should_panic(expected = "traffic names mem M7, which is not among the nodes to place")]
    fn traffic_to_an_unplaced_node_panics_naming_it() {
        let nodes: Vec<NocNode> = (0..10).map(k).collect();
        let traffic = vec![(k(0), k(1), 5), (k(2), m(7), 9)];
        let mut rng = StdRng::seed_from_u64(0);
        place_greedy(Mesh::at_least(10), &nodes, &traffic, &mut rng, 8);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn empty_placement_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        place(&[], &vec![], &mut rng);
    }
}
