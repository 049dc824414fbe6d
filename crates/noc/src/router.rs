//! The wormhole router with weighted-round-robin output arbitration.
//!
//! Modeled on the scalable QoS router of Heisswolf, Koenig and Becker
//! (ISPAW 2012) that the paper adapts: input-buffered, XY-routed, with a
//! weighted round robin choosing among input ports competing for the same
//! output. One flit crosses one router per cycle.

// Index loops over fixed-size port/coefficient arrays read more
// naturally than iterator chains here.
#![allow(clippy::needless_range_loop)]

use crate::flit::{Flit, PacketId};
#[cfg(test)]
use crate::topology::Direction;
use crate::topology::{Coord, Mesh};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Number of ports on a mesh router.
pub const PORTS: usize = 5;

/// Weighted round robin over router input ports, deficit-counter style:
/// every arbitration round each *requesting* input earns its weight in
/// credits; the requester with the most credits wins and pays the total
/// weight. Under saturation, grants converge to the weight proportions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WrrArbiter {
    weights: [u32; PORTS],
    credits: [i64; PORTS],
}

impl WrrArbiter {
    /// Arbiter with the given per-input weights (all ≥ 1).
    pub fn new(weights: [u32; PORTS]) -> Self {
        assert!(weights.iter().all(|&w| w >= 1), "weights must be ≥ 1");
        WrrArbiter {
            weights,
            credits: [0; PORTS],
        }
    }

    /// Equal-weight round robin.
    pub fn uniform() -> Self {
        WrrArbiter::new([1; PORTS])
    }

    /// Grant one of the requesting inputs; `None` when nobody requests.
    pub fn grant(&mut self, requesting: [bool; PORTS]) -> Option<usize> {
        if !requesting.iter().any(|&r| r) {
            return None;
        }
        let total: i64 = (0..PORTS)
            .filter(|&i| requesting[i])
            .map(|i| self.weights[i] as i64)
            .sum();
        for i in 0..PORTS {
            if requesting[i] {
                self.credits[i] += self.weights[i] as i64;
            }
        }
        let winner = (0..PORTS)
            .filter(|&i| requesting[i])
            .max_by_key(|&i| (self.credits[i], std::cmp::Reverse(i)))
            .expect("at least one requester");
        self.credits[winner] -= total;
        Some(winner)
    }
}

/// Wormhole ownership of an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputLock {
    /// Input port holding the output.
    pub input: usize,
    /// Packet the worm belongs to.
    pub packet: PacketId,
}

/// One router: five input FIFOs, five outputs with WRR arbiters and
/// wormhole locks.
#[derive(Debug, Clone)]
pub struct Router {
    /// Position on the mesh.
    pub coord: Coord,
    /// Input FIFOs, indexed by [`crate::topology::Direction::index`].
    pub inputs: [VecDeque<Flit>; PORTS],
    /// Current wormhole owner of each output, if any.
    pub output_lock: [Option<OutputLock>; PORTS],
    arbiters: [WrrArbiter; PORTS],
    capacity: usize,
}

/// A move decision for one cycle: pop the front of `input` and forward it
/// through `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Input port to pop.
    pub input: usize,
    /// Output port to traverse.
    pub output: usize,
    /// Whether the flit closes the wormhole.
    pub is_tail: bool,
}

impl Router {
    /// A router with the given input-buffer capacity (in flits) and uniform
    /// arbitration weights.
    pub fn new(coord: Coord, capacity: usize) -> Self {
        assert!(capacity >= 1);
        Router {
            coord,
            inputs: Default::default(),
            output_lock: [None; PORTS],
            arbiters: std::array::from_fn(|_| WrrArbiter::uniform()),
            capacity,
        }
    }

    /// Free slots in an input FIFO.
    pub fn space(&self, input: usize) -> usize {
        self.capacity - self.inputs[input].len()
    }

    /// Whether an input FIFO can accept a flit.
    pub fn has_space(&self, input: usize) -> bool {
        self.inputs[input].len() < self.capacity
    }

    /// Push an arriving flit into an input FIFO.
    ///
    /// # Panics
    /// If the FIFO is full — the caller must check [`Self::has_space`]
    /// (backpressure is the caller's responsibility, as in hardware where
    /// the upstream router checks credits before sending).
    pub fn accept(&mut self, input: usize, flit: Flit) {
        assert!(
            self.has_space(input),
            "input FIFO overflow at {}",
            self.coord
        );
        self.inputs[input].push_back(flit);
    }

    /// Decide this cycle's moves.
    ///
    /// `downstream_space[d]` says whether the receiver behind output `d`
    /// can accept one flit this cycle (the local/ejection output is always
    /// ready). At most one move per output and per input is produced.
    pub fn decide(&mut self, mesh: Mesh, downstream_space: [bool; PORTS]) -> Vec<Move> {
        let mut moves = Vec::new();
        // Inputs already committed to some output this cycle (an input can
        // feed only one output per cycle).
        let mut input_busy = [false; PORTS];

        // Phase 1: continue established wormholes.
        for d in 0..PORTS {
            if let Some(lock) = self.output_lock[d] {
                if input_busy[lock.input] || !downstream_space[d] {
                    continue;
                }
                if let Some(front) = self.inputs[lock.input].front() {
                    if front.packet == lock.packet {
                        input_busy[lock.input] = true;
                        moves.push(Move {
                            input: lock.input,
                            output: d,
                            is_tail: front.kind.is_tail(),
                        });
                    }
                }
            }
        }

        // Phase 2: arbitrate free outputs among head flits.
        for d in 0..PORTS {
            if self.output_lock[d].is_some() || !downstream_space[d] {
                continue;
            }
            let mut requesting = [false; PORTS];
            for i in 0..PORTS {
                if input_busy[i] {
                    continue;
                }
                if let Some(front) = self.inputs[i].front() {
                    if front.kind.is_head() && mesh.xy_route(self.coord, front.dst).index() == d {
                        requesting[i] = true;
                    }
                }
            }
            if let Some(winner) = self.arbiters[d].grant(requesting) {
                let front = *self.inputs[winner].front().expect("requester has a flit");
                input_busy[winner] = true;
                if !front.kind.is_tail() {
                    self.output_lock[d] = Some(OutputLock {
                        input: winner,
                        packet: front.packet,
                    });
                }
                moves.push(Move {
                    input: winner,
                    output: d,
                    is_tail: front.kind.is_tail(),
                });
            }
        }
        moves
    }

    /// Apply one decided move, returning the forwarded flit.
    pub fn apply(&mut self, mv: Move) -> Flit {
        let flit = self.inputs[mv.input]
            .pop_front()
            .expect("move references an empty input");
        if mv.is_tail {
            self.output_lock[mv.output] = None;
        }
        flit
    }

    /// Total flits currently buffered in this router.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet};

    fn headtail(id: u64, dst: Coord) -> Flit {
        Flit {
            packet: PacketId(id),
            kind: FlitKind::HeadTail,
            dst,
            payload: 4,
        }
    }

    #[test]
    fn wrr_uniform_is_fair() {
        let mut a = WrrArbiter::uniform();
        let mut counts = [0u32; PORTS];
        for _ in 0..500 {
            let w = a.grant([true; PORTS]).unwrap();
            counts[w] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn wrr_weights_shape_grant_shares() {
        let mut a = WrrArbiter::new([3, 1, 1, 1, 1]);
        let mut counts = [0u32; PORTS];
        for _ in 0..700 {
            let w = a.grant([true, true, false, false, false]).unwrap();
            counts[w] += 1;
        }
        // Input 0 should get ~3/4 of grants against input 1.
        let share = counts[0] as f64 / 700.0;
        assert!((share - 0.75).abs() < 0.02, "share = {share}");
    }

    #[test]
    fn wrr_none_when_idle() {
        let mut a = WrrArbiter::uniform();
        assert_eq!(a.grant([false; PORTS]), None);
    }

    #[test]
    fn router_routes_single_flit_to_correct_output() {
        let mesh = Mesh::new(2, 2);
        let mut r = Router::new(Coord::new(0, 0), 4);
        r.accept(Direction::Local.index(), headtail(1, Coord::new(1, 0)));
        let moves = r.decide(mesh, [true; PORTS]);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].output, Direction::East.index());
        assert!(moves[0].is_tail);
        let flit = r.apply(moves[0]);
        assert_eq!(flit.packet, PacketId(1));
        // HeadTail does not leave a lock behind.
        assert!(r.output_lock.iter().all(|l| l.is_none()));
    }

    #[test]
    fn wormhole_lock_blocks_competitors_until_tail() {
        let mesh = Mesh::new(3, 1);
        let mut r = Router::new(Coord::new(1, 0), 4);
        let dst = Coord::new(2, 0);
        let p1 = Packet {
            id: PacketId(1),
            src: Coord::new(0, 0),
            dst,
            bytes: 12,
        };
        let flits = p1.flitize(4); // head, body, tail
                                   // Packet 1 streams in on West; packet 2 (single flit) waits on Local.
        r.accept(Direction::West.index(), flits[0]);
        r.accept(Direction::West.index(), flits[1]);
        r.accept(Direction::Local.index(), headtail(2, dst));

        // Cycle 1: head of p1 wins East (arbitrarily vs p2).
        let m1 = r.decide(mesh, [true; PORTS]);
        let east_moves: Vec<_> = m1
            .iter()
            .filter(|m| m.output == Direction::East.index())
            .collect();
        assert_eq!(east_moves.len(), 1);
        let first_owner = east_moves[0].input;
        for m in m1 {
            r.apply(m);
        }
        if first_owner == Direction::Local.index() {
            // p2 won first; p1's head locks next cycle. Either order is
            // legal arbitration; re-run until p1 owns the port.
            let m = r.decide(mesh, [true; PORTS]);
            for mv in m {
                r.apply(mv);
            }
        }
        // Now p1 owns East; p2 (if still queued) cannot pass before tail.
        let lock = r.output_lock[Direction::East.index()];
        if let Some(l) = lock {
            assert_eq!(l.packet, PacketId(1));
            let m = r.decide(mesh, [true; PORTS]);
            // Every East move must belong to the locked input.
            for mv in m.iter().filter(|m| m.output == Direction::East.index()) {
                assert_eq!(mv.input, l.input);
            }
        }
    }

    #[test]
    fn backpressure_stalls_moves() {
        let mesh = Mesh::new(2, 1);
        let mut r = Router::new(Coord::new(0, 0), 4);
        r.accept(Direction::Local.index(), headtail(1, Coord::new(1, 0)));
        let mut space = [true; PORTS];
        space[Direction::East.index()] = false;
        let moves = r.decide(mesh, space);
        assert!(moves.is_empty());
        // Flit is still buffered.
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn accept_panics_on_overflow() {
        let mut r = Router::new(Coord::new(0, 0), 1);
        r.accept(0, headtail(1, Coord::new(0, 0)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.accept(0, headtail(2, Coord::new(0, 0)));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn distinct_outputs_move_in_parallel() {
        let mesh = Mesh::new(3, 3);
        let mut r = Router::new(Coord::new(1, 1), 4);
        r.accept(Direction::West.index(), headtail(1, Coord::new(2, 1))); // → East
        r.accept(Direction::North.index(), headtail(2, Coord::new(1, 2))); // → South
        let moves = r.decide(mesh, [true; PORTS]);
        assert_eq!(moves.len(), 2);
        let outs: Vec<usize> = moves.iter().map(|m| m.output).collect();
        assert!(outs.contains(&Direction::East.index()));
        assert!(outs.contains(&Direction::South.index()));
    }
}
