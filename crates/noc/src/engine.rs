//! The hybrid event-driven engine: next-event skip-ahead over quiescent
//! regions, single-threaded.
//!
//! # Next-event invariant
//!
//! The wormhole mesh is deadlock-free and ejection is always ready, so
//! **while any packet is in flight, at least one flit moves every cycle**
//! (or a stall is accounted, which is itself an observable). A live cycle
//! can therefore never be dropped; it can only be applied in bulk when its
//! outcome is already known. Two regions qualify:
//!
//! - *Quiescent* regions — no flits buffered, no injections pending —
//!   where the next observable event is the earliest scheduled injection.
//!   The engine jumps the clock there in one hop ([`Network::advance_idle_to`]).
//! - *Steady* wormhole runs. A cycle is steady when every link FIFO ends
//!   it as full as it began and every source feeding a moving worm has
//!   flits left to inject. Each router then repeats its moves while every
//!   moving FIFO's front is a Body or Tail flit of the packet holding its
//!   output, or the next packet's head taking over the released output
//!   unopposed, so [`Network::advance`] applies those cycles in one pass.
//!   A run ends at the first delivery, and never passes the next spatial
//!   window boundary, pulse firing, calendar bucket or run target.
//!
//! [`HybridNetwork::run_to`], [`HybridNetwork::run_until_drained`] and
//! [`HybridNetwork::run_until_delivery`] use both; [`HybridNetwork::step`]
//! and [`Network::step`] advance exactly one cycle. Cost thus scales with
//! *events* (injections, grants, tails and contention changes), not with
//! cycles × routers: on idle-heavy schedules, the common case in profiled
//! kernel graphs where compute dominates, nearly all cycles collapse into
//! jumps, and long worms stream through established paths in bulk.
//!
//! # Calendar layout
//!
//! Scheduled injections live in a calendar of per-cycle buckets
//! (`BTreeMap<cycle, Vec<send>>`): insertion is O(log buckets) on a
//! bucket boundary and amortized O(1) within one, the next-event query is
//! the first key, and a whole bucket injects in insertion order when its
//! cycle arrives — preserving the packet-id order a cycle-stepped driver
//! would have produced, which the cycle-exactness proptests rely on. A
//! ring-of-buckets calendar (classic calendar queue) was considered and
//! rejected: idle-heavy schedules are sparse and jumps are arbitrary
//! length, so the ordered index beats scanning ring slots across wraps.

use crate::network::{DeliveredPacket, DrainTimeout, NetMetrics, Network, NocConfig, RecordMode};
use crate::topology::Coord;
use crate::PacketId;
use hic_obs::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Engine names kept only for existing readers: both kinds run the same
/// single-threaded skip-ahead [`HybridNetwork`], so results and speed
/// are identical whichever is passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The skip-ahead engine (the same engine as [`EngineKind::Auto`]).
    Step,
    /// The skip-ahead engine (the same engine as [`EngineKind::Step`]).
    #[default]
    Auto,
}

/// Engine tuning kept only for existing readers: nothing in the engine
/// reads it. [`Default`] reports what the engine does — every live cycle
/// runs on one thread (`jobs: 1`) and no mesh size switches that
/// (`parallel_threshold: usize::MAX`).
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Threads stepping live cycles; always 1.
    pub jobs: usize,
    /// Router count at which stepping would go parallel; never reached.
    pub parallel_threshold: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            jobs: 1,
            parallel_threshold: usize::MAX,
        }
    }
}

/// Skip-ahead accounting since engine construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Quiescent regions collapsed into a single clock jump.
    pub skips: u64,
    /// Cycles those jumps covered (never individually simulated).
    pub skipped_cycles: u64,
    /// Cycles actually simulated by the stepper.
    pub stepped_cycles: u64,
    /// Live cycles applied in bulk after a steady stepped cycle (see
    /// [`Network::advance`]).
    pub bulk_cycles: u64,
}

impl SkipStats {
    /// Fraction of elapsed cycles that were skipped, in permille.
    pub fn skip_permille(&self) -> u64 {
        let total = self.skipped_cycles + self.stepped_cycles + self.bulk_cycles;
        (self.skipped_cycles * 1000).checked_div(total).unwrap_or(0)
    }
}

/// Per-cycle buckets of scheduled injections (see the module docs for
/// why a `BTreeMap` beats a ring calendar here).
#[derive(Debug, Default)]
struct Calendar {
    buckets: BTreeMap<u64, Vec<(Coord, Coord, u64)>>,
    len: usize,
}

impl Calendar {
    fn schedule(&mut self, cycle: u64, src: Coord, dst: Coord, bytes: u64) {
        self.buckets
            .entry(cycle)
            .or_default()
            .push((src, dst, bytes));
        self.len += 1;
    }

    fn next_cycle(&self) -> Option<u64> {
        self.buckets.first_key_value().map(|(&c, _)| c)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Live-gauge handles for `hic top` (skip ratio and event density).
#[derive(Debug)]
struct SkipGauges {
    skip_permille: Arc<hic_obs::Gauge>,
    events_per_kcycle: Arc<hic_obs::Gauge>,
}

/// The hybrid event-driven NoC engine: a [`Network`] plus an injection
/// calendar and next-event skip-ahead. Cycle-exact with the stepper and
/// the reference by construction — skipped regions are exactly the
/// regions where nothing could have moved.
#[derive(Debug)]
pub struct HybridNetwork {
    net: Network,
    cal: Calendar,
    skips: u64,
    skipped_cycles: u64,
    stepped_cycles: u64,
    bulk_cycles: u64,
    gauges: Option<SkipGauges>,
}

impl HybridNetwork {
    /// Build an idle hybrid engine.
    pub fn new(cfg: NocConfig) -> Self {
        HybridNetwork {
            net: Network::new(cfg),
            cal: Calendar::default(),
            skips: 0,
            skipped_cycles: 0,
            stepped_cycles: 0,
            bulk_cycles: 0,
            gauges: None,
        }
    }

    /// Inject a message now (same contract as [`Network::send`]).
    pub fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        self.net.send(src, dst, bytes)
    }

    /// Schedule a message for injection at `cycle`. A cycle at or before
    /// the current one saturates to "inject on the next step". Packet ids
    /// are assigned at injection time, in calendar order (bucket cycle,
    /// then insertion order within the bucket) — exactly the ids a driver
    /// stepping every cycle and calling [`Self::send`] would have issued.
    pub fn send_at(&mut self, cycle: u64, src: Coord, dst: Coord, bytes: u64) {
        self.cal
            .schedule(cycle.max(self.net.cycle()), src, dst, bytes);
    }

    /// Inject every calendar bucket that is due at or before the current
    /// cycle.
    fn inject_due(&mut self) {
        let now = self.net.cycle();
        while let Some((&c, _)) = self.cal.buckets.first_key_value() {
            if c > now {
                break;
            }
            let batch = self.cal.buckets.pop_first().expect("checked non-empty").1;
            self.cal.len -= batch.len();
            for (src, dst, bytes) in batch {
                self.net.send(src, dst, bytes);
            }
        }
    }

    /// One simulated cycle.
    fn step_live(&mut self) {
        self.net.step();
        self.stepped_cycles += 1;
    }

    /// One simulated cycle, then as many repeats of it as are steady, up
    /// to `limit` cycles in all (see [`Network::advance`]).
    fn advance_live(&mut self, limit: u64) {
        let n = self.net.advance(limit);
        self.stepped_cycles += 1;
        self.bulk_cycles += n - 1;
    }

    /// Cycles until the next calendar bucket, capped at `cap`. After
    /// `inject_due` every bucket is in the future, so this is positive
    /// whenever `cap` is.
    fn to_next_bucket(&self, cap: u64) -> u64 {
        let now = self.net.cycle();
        self.cal.next_cycle().map_or(cap, |c| (c - now).min(cap))
    }

    /// Jump a drained network to `next` (never backwards).
    fn skip_to(&mut self, next: u64) {
        let now = self.net.cycle();
        self.net
            .advance_idle_to(next)
            .expect("skip-ahead only from a drained network");
        self.skips += 1;
        self.skipped_cycles += next - now;
    }

    /// Advance one cycle (injecting any due scheduled sends first).
    pub fn step(&mut self) {
        self.inject_due();
        self.step_live();
    }

    /// Run the clock to `target`: advance while traffic is live (steady
    /// wormhole runs in bulk), jump over quiescent regions to the next
    /// scheduled injection in one hop.
    pub fn run_to(&mut self, target: u64) {
        while self.net.cycle() < target {
            self.inject_due();
            let room = self.to_next_bucket(target - self.net.cycle());
            if self.net.is_drained() {
                // Quiescent: nothing can move until the next scheduled
                // injection. `inject_due` drained every bucket at or
                // before `now`, so the earliest bucket is strictly in the
                // future and the jump is non-trivial.
                self.skip_to(self.net.cycle() + room);
            } else {
                self.advance_live(room);
            }
        }
        self.update_gauges();
    }

    /// Advance until at least one packet is delivered or the clock
    /// reaches `target`, whichever comes first, and say whether a packet
    /// was delivered. Live cycles advance as in [`Self::run_to`], quiescent
    /// ones are skipped; with nothing in flight and nothing scheduled no
    /// delivery can come, so the call returns `false` at once. The stop
    /// is exact: the clock ends on the cycle of the first delivery, the
    /// cycle a caller stepping one cycle at a time and checking the
    /// delivered count after each would stop on. Unlike the `run_*`
    /// calls, it leaves the live gauges alone, so a caller that waits on
    /// each delivery pays no per-call metrics sweep.
    pub fn run_until_delivery(&mut self, target: u64) -> bool {
        let before = self.net.stats().delivered();
        while self.net.cycle() < target {
            self.inject_due();
            let room = self.to_next_bucket(target - self.net.cycle());
            if self.net.is_drained() {
                if self.cal.is_empty() {
                    return false;
                }
                self.skip_to(self.net.cycle() + room);
            } else {
                self.advance_live(room);
                if self.net.stats().delivered() != before {
                    return true;
                }
            }
        }
        false
    }

    /// Advance until all traffic — in flight and scheduled — has drained.
    /// `max_stepped` bounds the *live* cycles, stepped or applied in bulk
    /// (skipped regions are free, so an idle-heavy schedule cannot
    /// spuriously exhaust the budget).
    pub fn run_until_drained(&mut self, max_stepped: u64) -> Result<u64, DrainTimeout> {
        let start_live = self.stepped_cycles + self.bulk_cycles;
        let start = self.net.cycle();
        while !self.is_drained() {
            let live = self.stepped_cycles + self.bulk_cycles - start_live;
            if live >= max_stepped {
                return Err(DrainTimeout {
                    undelivered: self.net.in_flight() + self.cal.len,
                });
            }
            self.inject_due();
            if self.net.is_drained() {
                let next = self
                    .cal
                    .next_cycle()
                    .expect("undrained engine with empty calendar");
                self.skip_to(next);
            } else {
                let room = self.to_next_bucket(max_stepped - live);
                self.advance_live(room);
            }
        }
        self.update_gauges();
        Ok(self.net.cycle() - start)
    }

    /// True when nothing is in flight and nothing is scheduled.
    pub fn is_drained(&self) -> bool {
        self.net.is_drained() && self.cal.is_empty()
    }

    /// Skip-ahead accounting since construction.
    pub fn skip_stats(&self) -> SkipStats {
        SkipStats {
            skips: self.skips,
            skipped_cycles: self.skipped_cycles,
            stepped_cycles: self.stepped_cycles,
            bulk_cycles: self.bulk_cycles,
        }
    }

    /// Messages scheduled but not yet injected.
    pub fn scheduled(&self) -> usize {
        self.cal.len
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    /// The wrapped network, for read-side inspection (stats, metrics,
    /// delivered log).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Per-packet delivery records (see [`Network::delivered`]).
    pub fn delivered(&self) -> &[DeliveredPacket] {
        self.net.delivered()
    }

    /// Remove and return the packets delivered since the last drain.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, DeliveredPacket> {
        self.net.drain_events()
    }

    /// Streaming delivery statistics (see [`Network::stats`]).
    pub fn stats(&self) -> &crate::network::NocStats {
        self.net.stats()
    }

    /// Aggregate per-router observability counters.
    pub fn metrics(&self) -> NetMetrics {
        self.net.metrics()
    }

    /// Choose how much per-packet information to retain.
    pub fn set_record_mode(&mut self, mode: RecordMode) {
        self.net.set_record_mode(mode);
    }

    /// Turn on spatial accounting (see [`Network::enable_spatial`]).
    /// Window boundaries are cycle-aligned and quiet windows are never
    /// recorded, so the collected windows, matrices, and flows are
    /// identical whether quiescent regions are stepped or skipped — and
    /// identical to the plain stepper's.
    pub fn enable_spatial(&mut self, cfg: crate::network::SpatialConfig) {
        self.net.enable_spatial(cfg);
    }

    /// Close the open spatial window (see
    /// [`Network::flush_spatial_window`]). Call after the run completes
    /// and before reading the windows through [`Self::network`].
    pub fn flush_spatial_window(&mut self) {
        self.net.flush_spatial_window();
    }

    /// Route packet-lifecycle events to `tracer`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.net.attach_tracer(tracer);
    }

    /// Publish the wrapped network's live gauges plus the engine's own
    /// `<prefix>.live.skip_permille` and `<prefix>.live.events_per_kcycle`
    /// (updated at the end of each `run_*` call).
    pub fn attach_pulse(&mut self, reg: &hic_obs::Registry, prefix: &str, every: u64) {
        self.net.attach_pulse(reg, prefix, every);
        self.gauges = Some(SkipGauges {
            skip_permille: reg.gauge(&format!("{prefix}.live.skip_permille")),
            events_per_kcycle: reg.gauge(&format!("{prefix}.live.events_per_kcycle")),
        });
        self.update_gauges();
    }

    /// Publish final aggregate metrics (see [`Network::publish_metrics`])
    /// plus `<prefix>.bulk_cycles`, the live cycles applied in bulk.
    pub fn publish_metrics(&self, reg: &hic_obs::Registry, prefix: &str) {
        self.net.publish_metrics(reg, prefix);
        reg.counter(&format!("{prefix}.bulk_cycles"))
            .add(self.bulk_cycles);
    }

    fn update_gauges(&self) {
        let Some(g) = &self.gauges else { return };
        let total = self.skipped_cycles + self.stepped_cycles + self.bulk_cycles;
        g.skip_permille
            .set((self.skipped_cycles * 1000).checked_div(total).unwrap_or(0));
        let m = self.net.metrics();
        let events = m.forwarded_flits + m.ejected_flits;
        g.events_per_kcycle
            .set((events * 1000).checked_div(total).unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    fn cfg(side: u16) -> NocConfig {
        NocConfig::paper_default(Mesh::new(side, side))
    }

    #[test]
    fn skip_ahead_jumps_quiescent_regions_in_one_hop() {
        let c = cfg(4);
        let mut h = HybridNetwork::new(c);
        let mesh = c.mesh;
        h.send_at(10_000, mesh.coord(0), mesh.coord(15), 64);
        h.run_until_drained(100_000).expect("drains");
        let s = h.skip_stats();
        assert_eq!(s.skips, 1, "one quiescent region, one jump");
        assert_eq!(s.skipped_cycles, 10_000);
        assert!(
            s.stepped_cycles < 100,
            "only the live burst is simulated, got {}",
            s.stepped_cycles
        );
        assert_eq!(h.delivered().len(), 1);
    }

    #[test]
    fn run_to_stops_exactly_at_target_and_saturates_past_sends() {
        let c = cfg(4);
        let mut h = HybridNetwork::new(c);
        let mesh = c.mesh;
        h.run_to(500);
        assert_eq!(h.cycle(), 500);
        // Scheduling in the past saturates to "next step" instead of
        // panicking or rewinding.
        h.send_at(100, mesh.coord(1), mesh.coord(2), 8);
        h.run_until_drained(10_000).expect("drains");
        assert_eq!(h.delivered().len(), 1);
        assert!(h.delivered()[0].injected >= 500);
    }

    #[test]
    fn calendar_preserves_same_cycle_insertion_order() {
        let c = cfg(4);
        let mut h = HybridNetwork::new(c);
        let mesh = c.mesh;
        for k in 0..5 {
            h.send_at(50, mesh.coord(k), mesh.coord(15 - k), 16);
        }
        h.run_until_drained(100_000).expect("drains");
        let mut ids: Vec<_> = h.delivered().iter().map(|p| (p.src, p.id.0)).collect();
        ids.sort_by_key(|&(_, id)| id);
        // Ids were assigned in insertion order: src k got id k.
        for (k, &(src, id)) in ids.iter().enumerate() {
            assert_eq!(id, k as u64);
            assert_eq!(src, mesh.coord(k));
        }
    }

    #[test]
    fn drain_budget_counts_stepped_not_skipped_cycles() {
        let c = cfg(4);
        let mut h = HybridNetwork::new(c);
        let mesh = c.mesh;
        // A send a billion cycles out: free to skip to, so a small
        // stepped-cycle budget still suffices.
        h.send_at(1_000_000_000, mesh.coord(0), mesh.coord(5), 8);
        h.run_until_drained(1_000).expect("skip makes this cheap");
        assert!(h.cycle() > 1_000_000_000);
    }
}
