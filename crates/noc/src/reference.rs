//! The pre-optimization network stepper, kept as the executable
//! specification of the simulator's cycle-level semantics.
//!
//! [`ReferenceNetwork`] is the original [`Network`](crate::Network)
//! implementation: it snapshots and decides on *every* router each cycle,
//! allocates per-cycle move vectors, tracks in-flight packets in a
//! `HashMap` and retains every [`DeliveredPacket`]. The optimized fast
//! path in [`network`](crate::network) must produce bit-identical
//! per-packet delivery cycles; the `cycle_exact` property test drives
//! both through randomized traffic and asserts exactly that. The
//! `noc_fastpath` bench and the `repro` binary use it as the before-side
//! of the throughput comparison. This module holds only the oracle: the
//! synthetic traffic that drives it, and the [`Stepper`](crate::traffic::Stepper)
//! interface it shares with the fast path, live in [`traffic`](crate::traffic).

// This file preserves the original stepper verbatim; index loops over the
// fixed-size port arrays are part of that code.
#![allow(clippy::needless_range_loop)]

use crate::flit::{Flit, Packet, PacketId};
use crate::network::{DeliveredPacket, DrainTimeout, NocConfig};
use crate::router::{Move, Router, PORTS};
use crate::topology::{Coord, Direction};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone)]
struct InFlight {
    src: Coord,
    dst: Coord,
    bytes: u64,
    injected: u64,
}

/// The original, straightforward mesh stepper (see module docs).
#[derive(Debug)]
pub struct ReferenceNetwork {
    cfg: NocConfig,
    routers: Vec<Router>,
    inject: Vec<VecDeque<Flit>>,
    inflight: HashMap<PacketId, InFlight>,
    delivered: Vec<DeliveredPacket>,
    cycle: u64,
    next_id: u64,
    space_scratch: Vec<[bool; PORTS]>,
}

impl ReferenceNetwork {
    /// Build an idle network.
    pub fn new(cfg: NocConfig) -> Self {
        let routers = (0..cfg.mesh.len())
            .map(|i| Router::new(cfg.mesh.coord(i), cfg.buffer_flits))
            .collect();
        ReferenceNetwork {
            cfg,
            routers,
            inject: vec![VecDeque::new(); cfg.mesh.len()],
            inflight: HashMap::new(),
            delivered: Vec::new(),
            cycle: 0,
            next_id: 0,
            space_scratch: vec![[false; PORTS]; cfg.mesh.len()],
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Hand a message to the source node for injection.
    pub fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        assert!(self.cfg.mesh.contains(src), "src off mesh");
        assert!(self.cfg.mesh.contains(dst), "dst off mesh");
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let pkt = Packet {
            id,
            src,
            dst,
            bytes,
        };
        let node = self.cfg.mesh.index(src);
        for flit in pkt.flitize(self.cfg.flit_payload) {
            self.inject[node].push_back(flit);
        }
        self.inflight.insert(
            id,
            InFlight {
                src,
                dst,
                bytes,
                injected: self.cycle,
            },
        );
        id
    }

    /// Advance one cycle: inject, snapshot, decide everywhere, apply.
    pub fn step(&mut self) {
        let mesh = self.cfg.mesh;
        let local = Direction::Local.index();

        for (node, queue) in self.inject.iter_mut().enumerate() {
            while !queue.is_empty() && self.routers[node].has_space(local) {
                let flit = queue.pop_front().expect("checked non-empty");
                self.routers[node].accept(local, flit);
            }
        }

        let mut space = std::mem::take(&mut self.space_scratch);
        for (i, r) in self.routers.iter().enumerate() {
            for d in Direction::ALL {
                space[i][d.index()] = match d {
                    Direction::Local => true,
                    _ => mesh
                        .neighbor(r.coord, d)
                        .map(|n| self.routers[mesh.index(n)].has_space(d.opposite().index()))
                        .unwrap_or(false),
                };
            }
        }

        let mut all_moves: Vec<(usize, Vec<Move>)> = Vec::with_capacity(self.routers.len());
        for i in 0..self.routers.len() {
            let moves = self.routers[i].decide(mesh, space[i]);
            if !moves.is_empty() {
                all_moves.push((i, moves));
            }
        }

        for (i, moves) in all_moves {
            for mv in moves {
                let flit = self.routers[i].apply(mv);
                if mv.output == local {
                    if flit.kind.is_tail() {
                        let fin = self
                            .inflight
                            .remove(&flit.packet)
                            .expect("tail of unknown packet");
                        self.delivered.push(DeliveredPacket {
                            id: flit.packet,
                            src: fin.src,
                            dst: fin.dst,
                            bytes: fin.bytes,
                            injected: fin.injected,
                            delivered: self.cycle + 1,
                        });
                    }
                } else {
                    let from = self.routers[i].coord;
                    let dir = Direction::ALL[mv.output];
                    let n = mesh.neighbor(from, dir).expect("move off the mesh edge");
                    let n_idx = mesh.index(n);
                    self.routers[n_idx].accept(dir.opposite().index(), flit);
                }
            }
        }

        self.space_scratch = space;
        self.cycle += 1;
    }

    /// True when no traffic remains anywhere.
    pub fn is_drained(&self) -> bool {
        self.inflight.is_empty() && self.inject.iter().all(|q| q.is_empty())
    }

    /// Step until drained or until `max_cycles` more cycles have elapsed.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<u64, DrainTimeout> {
        let start = self.cycle;
        while !self.is_drained() {
            if self.cycle - start >= max_cycles {
                return Err(DrainTimeout {
                    undelivered: self.inflight.len(),
                });
            }
            self.step();
        }
        Ok(self.cycle - start)
    }

    /// Packets delivered so far, in delivery order.
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.delivered
    }
}
