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
//! of the throughput comparison.

// This file preserves the original stepper verbatim; index loops over the
// fixed-size port arrays are part of that code.
#![allow(clippy::needless_range_loop)]

use crate::flit::{Flit, Packet, PacketId};
use crate::network::{DeliveredPacket, DrainTimeout, Network, NocConfig};
use crate::router::{Move, Router, PORTS};
use crate::topology::{Coord, Direction, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The stepping interface shared by the fast path and the reference, so
/// benches and equivalence tests can drive both with identical traffic.
pub trait Stepper {
    /// Inject a message at the source node.
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId;
    /// Advance one cycle.
    fn step(&mut self);
    /// True when no traffic remains.
    fn is_drained(&self) -> bool;
}

impl Stepper for Network {
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        Network::send(self, src, dst, bytes)
    }
    fn step(&mut self) {
        Network::step(self)
    }
    fn is_drained(&self) -> bool {
        Network::is_drained(self)
    }
}

impl Stepper for crate::engine::HybridNetwork {
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        crate::engine::HybridNetwork::send(self, src, dst, bytes)
    }
    fn step(&mut self) {
        crate::engine::HybridNetwork::step(self)
    }
    fn is_drained(&self) -> bool {
        crate::engine::HybridNetwork::is_drained(self)
    }
}

impl Stepper for ReferenceNetwork {
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        ReferenceNetwork::send(self, src, dst, bytes)
    }
    fn step(&mut self) {
        ReferenceNetwork::step(self)
    }
    fn is_drained(&self) -> bool {
        ReferenceNetwork::is_drained(self)
    }
}

/// The injection schedule [`drive_uniform`] produces: Bernoulli uniform
/// traffic at `offered` flits/node/cycle, one `(cycle, src, dst)` entry
/// per packet in injection order, deterministic in `seed`.
pub fn uniform_schedule(
    mesh: Mesh,
    offered: f64,
    packet_bytes: u64,
    flit_payload: u32,
    cycles: u64,
    seed: u64,
) -> Vec<(u64, Coord, Coord)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flits_per_packet = packet_bytes.div_ceil(flit_payload as u64).max(1);
    let p_inject = (offered / flits_per_packet as f64).min(1.0);
    let mut schedule = Vec::new();
    for c in 0..cycles {
        for n in 0..mesh.len() {
            if rng.gen_bool(p_inject) {
                let src = mesh.coord(n);
                let dst = mesh.coord(rng.gen_range(0..mesh.len()));
                schedule.push((c, src, dst));
            }
        }
    }
    schedule
}

/// Play a prebuilt injection schedule: inject each packet on its cycle
/// (relative to the first of the `cycles` steps performed here), stepping
/// once per cycle. RNG-free, so a timed benchmark run measures the
/// stepper and not the traffic generator.
pub fn drive_schedule<S: Stepper>(
    net: &mut S,
    schedule: &[(u64, Coord, Coord)],
    packet_bytes: u64,
    cycles: u64,
) {
    let mut next = 0;
    for c in 0..cycles {
        while next < schedule.len() && schedule[next].0 == c {
            let (_, src, dst) = schedule[next];
            net.send(src, dst, packet_bytes);
            next += 1;
        }
        net.step();
    }
}

/// Bursty on/off schedule: within the first `burst` cycles of each
/// `period`, uniform Bernoulli traffic at `offered_on` flits/node/cycle;
/// the remainder of the period is silent. Models the compute-dominated
/// phases of profiled kernel graphs — short communication bursts
/// separated by long quiescent gaps — which is the regime the hybrid
/// engine's skip-ahead collapses.
#[allow(clippy::too_many_arguments)]
pub fn bursty_schedule(
    mesh: Mesh,
    offered_on: f64,
    packet_bytes: u64,
    flit_payload: u32,
    burst: u64,
    period: u64,
    cycles: u64,
    seed: u64,
) -> Vec<(u64, Coord, Coord)> {
    assert!(
        burst <= period && period > 0,
        "burst must fit in the period"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let flits_per_packet = packet_bytes.div_ceil(flit_payload as u64).max(1);
    let p_inject = (offered_on / flits_per_packet as f64).min(1.0);
    let mut schedule = Vec::new();
    for c in 0..cycles {
        if c % period >= burst {
            continue;
        }
        for n in 0..mesh.len() {
            if rng.gen_bool(p_inject) {
                let src = mesh.coord(n);
                let dst = mesh.coord(rng.gen_range(0..mesh.len()));
                schedule.push((c, src, dst));
            }
        }
    }
    schedule
}

/// Hotspot-skewed schedule: Bernoulli injection at `offered`
/// flits/node/cycle where each packet targets `hotspot` with probability
/// `bias` and a uniform destination otherwise. Exercises the asymmetric
/// congestion the uniform generator never produces.
#[allow(clippy::too_many_arguments)]
pub fn hotspot_schedule(
    mesh: Mesh,
    offered: f64,
    packet_bytes: u64,
    flit_payload: u32,
    hotspot: Coord,
    bias: f64,
    cycles: u64,
    seed: u64,
) -> Vec<(u64, Coord, Coord)> {
    assert!(mesh.contains(hotspot), "hotspot off mesh");
    let mut rng = StdRng::seed_from_u64(seed);
    let flits_per_packet = packet_bytes.div_ceil(flit_payload as u64).max(1);
    let p_inject = (offered / flits_per_packet as f64).min(1.0);
    let mut schedule = Vec::new();
    for c in 0..cycles {
        for n in 0..mesh.len() {
            if rng.gen_bool(p_inject) {
                let src = mesh.coord(n);
                let dst = if rng.gen_bool(bias) {
                    hotspot
                } else {
                    mesh.coord(rng.gen_range(0..mesh.len()))
                };
                schedule.push((c, src, dst));
            }
        }
    }
    schedule
}

/// Load a prebuilt injection schedule into the hybrid engine's calendar.
/// Packet ids are assigned at injection time, so they match what
/// [`drive_schedule`] would have issued on a stepper: bucket cycle order,
/// then schedule order within a cycle.
pub fn schedule_hybrid(
    net: &mut crate::engine::HybridNetwork,
    schedule: &[(u64, Coord, Coord)],
    packet_bytes: u64,
) {
    for &(c, src, dst) in schedule {
        net.send_at(c, src, dst, packet_bytes);
    }
}

/// Drive `cycles` cycles of Bernoulli uniform-random traffic at `offered`
/// flits/node/cycle (fixed `packet_bytes` packets), deterministically from
/// `seed`. The injection schedule depends only on the arguments, so
/// driving a fast and a reference stepper with the same seed subjects
/// them to identical traffic.
pub fn drive_uniform<S: Stepper>(
    net: &mut S,
    mesh: Mesh,
    offered: f64,
    packet_bytes: u64,
    flit_payload: u32,
    cycles: u64,
    seed: u64,
) {
    let schedule = uniform_schedule(mesh, offered, packet_bytes, flit_payload, cycles, seed);
    drive_schedule(net, &schedule, packet_bytes, cycles);
}
