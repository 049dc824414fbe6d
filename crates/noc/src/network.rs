//! The cycle-stepped mesh network.
//!
//! Every [`step`](Network::step) advances one NoC clock cycle in three
//! phases: inject (node→local FIFO), decide (routers arbitrate against
//! a pre-move buffer-space snapshot), apply (flits traverse one router and
//! land in the neighbor's input FIFO or eject). Using a snapshot for the
//! space check makes the update order-independent: a link carries at most
//! one flit per cycle and a FIFO is never overfilled.
//!
//! # The zero-allocation fast path
//!
//! This implementation is cycle-exact with the original stepper (kept as
//! [`crate::reference::ReferenceNetwork`]; the `cycle_exact` property test
//! drives both through randomized traffic and asserts identical per-packet
//! delivery cycles) but restructured so the hot loop neither allocates nor
//! touches idle routers:
//!
//! - **Active-router bitset.** Only routers holding buffered flits or
//!   pending injections are visited, walked in index order straight off a
//!   bitmask (sequential access into the per-router state arrays).
//!   Skipping an idle router is observably a no-op in the original
//!   semantics: its decide produces no moves, and
//!   [`crate::router::WrrArbiter::grant`] returns early *without touching
//!   credits* when nothing requests, so arbiter state is preserved. A
//!   router left holding an output lock with empty FIFOs (a worm stalled
//!   upstream) is likewise inert until a flit arrives, which re-activates
//!   it. Retirement is fused into the apply phase: a router can only go
//!   idle by moving its flits out.
//! - **Flat FIFO storage with per-router masks.** All input-FIFO flits
//!   live in one flat ring array, with occupancy counts, a non-empty-port
//!   bitmask and a locked-output bitmask mirrored alongside — the decide
//!   work is proportional to the ports actually in use, not `PORTS`.
//! - **Fused snapshot + decide, deferred apply.** Deciding mutates only the
//!   router's own locks/arbiters and reads only neighbor FIFO *lengths*,
//!   which no decide changes — so the downstream-space snapshot is
//!   computed lazily per direction as the decision logic first asks for
//!   it, while all FIFO mutations wait for the apply phase. Decisions are
//!   collected in a reusable scratch vector of packed one-byte moves;
//!   nothing is heap-allocated per cycle in the steady state.
//! - **Packet-granular inject queues.** A source queues each sent message
//!   as one entry (packet id, destination, flit count, flits left, tail
//!   payload), and the injection pass makes each flit as it enters the
//!   Local FIFO, equal field for field to [`Packet::flitize`]'s flit at
//!   that index. [`Network::send`] is O(1) in time and memory whatever
//!   the message size; no flit exists before it can enter the network.
//! - **Slab packet tracking.** [`PacketId`]s are assigned monotonically, so
//!   in-flight packets live in a sliding slab indexed by `id - base`
//!   instead of a `HashMap`.
//! - **Streaming statistics.** Delivery count, latency sum/max, payload
//!   bytes and an exact integer latency histogram accumulate on the fly
//!   ([`NocStats`]); the full per-packet log is opt-in via [`RecordMode`],
//!   so long saturation runs no longer grow memory with the delivered
//!   count.
//!
//! Within one cycle the *order* of entries in the delivered log is not
//! guaranteed to match the reference; every per-packet field, including
//! the delivery cycle, is identical.
//!
//! # Steady wormholes in bulk
//!
//! Once a worm holds its path it streams one flit per hop per cycle, and
//! stepping re-derives that known answer every cycle. [`Network::advance`]
//! steps one cycle and, when the cycle was *steady* (every link FIFO came
//! out as full as it went in, and every source that fed a moving worm has
//! flits left to inject), applies the cycles that must repeat it in one
//! pass: while every moving FIFO's front is a Body or Tail flit of the
//! packet holding its output, or the next packet's head taking over the
//! released output unopposed, up to the first delivery, the next spatial
//! window boundary or the next pulse firing. [`Network::step`] keeps the
//! one-cycle semantics and code; the bulk path is a second entry point
//! into the same cycle, not a second engine, and the `cycle_exact` tests
//! hold it to stepping on every observable.

// Index loops over fixed-size port/coefficient arrays read more
// naturally than iterator chains here.
#![allow(clippy::needless_range_loop)]

use crate::flit::{Flit, FlitKind, Packet, PacketId};
use crate::router::{OutputLock, WrrArbiter, PORTS};
pub use crate::topology::LinkRef;
use crate::topology::{Coord, Direction, Mesh};
use hic_fabric::time::Frequency;
use hic_obs::trace::{Category, Detail, Event, Phase, Recorder, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// `OPP[d]` = `Direction::ALL[d].opposite().index()`, as a table so the
/// hot loop does no enum round-trips.
const OPP: [usize; PORTS] = [2, 3, 0, 1, 4];

/// `i mod cap` for `i < 2 * cap`, without a hardware divide (`cap` is a
/// runtime value).
#[inline(always)]
fn wrap(i: usize, cap: usize) -> usize {
    if i >= cap {
        i - cap
    } else {
        i
    }
}

/// One decided move packed into a byte: input port (bits 0–2), output
/// port (bits 3–5), tail flag (bit 6).
#[inline]
fn pack_move(input: usize, output: usize, is_tail: bool) -> u8 {
    (input | (output << 3) | ((is_tail as usize) << 6)) as u8
}

#[inline]
fn unpack_move(pm: u8) -> (usize, usize, bool) {
    ((pm & 7) as usize, ((pm >> 3) & 7) as usize, pm & 0x40 != 0)
}

/// The moves one router decided this cycle, packed small so the decide →
/// apply hand-off copies 12 bytes per router.
#[derive(Debug, Clone, Copy)]
struct PackedMoves {
    router: u32,
    n: u8,
    moves: [u8; PORTS],
}

/// One FIFO of a repeating chain (see [`Network::advance`]): the input
/// port a moving router pops, the output it feeds, and where the FIFO's
/// front sits on the chain's conveyor.
#[derive(Debug, Clone, Copy)]
struct Hop {
    router: u32,
    port: u8,
    out: u8,
    off: u32,
}

/// One chain's hops (ejecting FIFO first) and its head and tail flits
/// ("marks") by conveyor position, as ranges into [`Chains`].
#[derive(Debug, Clone)]
struct ChainSpan {
    hops: std::ops::Range<usize>,
    marks: std::ops::Range<usize>,
}

/// Scratch for [`Network::advance`]'s chain walk, reused across calls.
#[derive(Debug, Default)]
struct Chains {
    hops: Vec<Hop>,
    marks: Vec<(u32, Flit)>,
    spans: Vec<ChainSpan>,
}

impl Chains {
    fn clear(&mut self) {
        self.hops.clear();
        self.marks.clear();
        self.spans.clear();
    }
}

/// Static NoC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh dimensions.
    pub mesh: Mesh,
    /// NoC clock. The Heisswolf router synthesizes at 150 MHz (Table II);
    /// in-system it is clocked with the 100 MHz kernel domain.
    pub clock: Frequency,
    /// Flit payload in bytes (4 = 32-bit links).
    pub flit_payload: u32,
    /// Input FIFO depth in flits.
    pub buffer_flits: usize,
}

impl NocConfig {
    /// The configuration used throughout the paper reproduction: 32-bit
    /// links, 4-flit buffers, 100 MHz, mesh sized to the node count.
    pub fn paper_default(mesh: Mesh) -> Self {
        NocConfig {
            mesh,
            clock: Frequency::from_mhz(100),
            flit_payload: 4,
            buffer_flits: 4,
        }
    }
}

/// A packet that completed its journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveredPacket {
    /// Packet id.
    pub id: PacketId,
    /// Source router.
    pub src: Coord,
    /// Destination router.
    pub dst: Coord,
    /// Payload bytes.
    pub bytes: u64,
    /// Cycle the packet was handed to the source node.
    pub injected: u64,
    /// Cycle the tail flit ejected at the destination.
    pub delivered: u64,
}

impl DeliveredPacket {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered - self.injected
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    src: Coord,
    dst: Coord,
    bytes: u64,
    injected: u64,
}

/// One packet in a source's inject queue: the flits still to inject are
/// its last `left`, built one at a time as they enter the Local FIFO (each
/// equal to the flit at the same index of [`Packet::flitize`]).
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: PacketId,
    dst: Coord,
    /// Flits in the packet.
    flits: u32,
    /// Flits not yet injected (at least 1 while queued).
    left: u32,
    /// Payload of the tail flit.
    tail_payload: u32,
}

impl Queued {
    fn new(pkt: &Packet, flit_payload: u32) -> Queued {
        let flits =
            u32::try_from(pkt.flit_count(flit_payload)).expect("packet longer than u32::MAX flits");
        Queued {
            id: pkt.id,
            dst: pkt.dst,
            flits,
            left: flits,
            tail_payload: (pkt.bytes - (flits as u64 - 1) * flit_payload as u64) as u32,
        }
    }

    /// Flit `i` (0 = head) of the packet.
    #[inline]
    fn flit(&self, i: u32, flit_payload: u32) -> Flit {
        let last = i == self.flits - 1;
        Flit {
            packet: self.id,
            kind: match (i == 0, last) {
                (true, true) => FlitKind::HeadTail,
                (true, false) => FlitKind::Head,
                (false, true) => FlitKind::Tail,
                (false, false) => FlitKind::Body,
            },
            dst: self.dst,
            payload: if last {
                self.tail_payload
            } else {
                flit_payload
            },
        }
    }
}

/// Take the next flit off a source's inject queue.
#[inline]
fn queue_pop(queue: &mut VecDeque<Queued>, flit_payload: u32) -> Flit {
    let q = queue.front_mut().expect("pop from an empty inject queue");
    let flit = q.flit(q.flits - q.left, flit_payload);
    q.left -= 1;
    if q.left == 0 {
        queue.pop_front();
    }
    flit
}

/// The flit `pos` places behind the front of a source's inject queue.
fn queue_at(queue: &VecDeque<Queued>, mut pos: usize, flit_payload: u32) -> Flit {
    for q in queue {
        if pos < q.left as usize {
            return q.flit(q.flits - q.left + pos as u32, flit_payload);
        }
        pos -= q.left as usize;
    }
    panic!("inject queue position past its end")
}

/// Drop the first `k` flits of a source's inject queue.
fn queue_consume(queue: &mut VecDeque<Queued>, mut k: u64) {
    while k > 0 {
        let q = queue.front_mut().expect("consume past the inject queue");
        if (q.left as u64) <= k {
            k -= q.left as u64;
            queue.pop_front();
        } else {
            q.left -= k as u32;
            k = 0;
        }
    }
}

/// How much per-packet delivery information the network retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Keep every [`DeliveredPacket`] for the lifetime of the network (the
    /// historical behaviour, and the default).
    #[default]
    Full,
    /// Keep delivered packets only until the caller consumes them with
    /// [`Network::drain_events`]; memory is bounded by the drain cadence
    /// instead of the total delivered count.
    Events,
    /// Keep no per-packet log at all — only the streaming [`NocStats`]
    /// (and the optional stats window) accumulate.
    Stats,
}

/// Streaming delivery statistics, accumulated as packets eject. Gives the
/// same answers as a scan over the full delivery log — including an exact
/// p99, via an integer latency histogram — without retaining the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NocStats {
    delivered: u64,
    latency_sum: u64,
    latency_max: u64,
    bytes: u64,
    /// `hist[l]` = packets delivered with latency exactly `l` cycles.
    hist: Vec<u64>,
}

impl NocStats {
    fn record(&mut self, latency: u64, bytes: u64) {
        self.delivered += 1;
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        self.bytes += bytes;
        let slot = latency as usize;
        if slot >= self.hist.len() {
            self.hist.resize(slot + 1, 0);
        }
        self.hist[slot] += 1;
    }

    /// Packets delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total payload bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Sum of end-to-end latencies, in cycles.
    pub fn latency_sum(&self) -> u64 {
        self.latency_sum
    }

    /// Mean end-to-end latency in cycles (0 when nothing delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Maximum end-to-end latency in cycles.
    pub fn max_latency(&self) -> u64 {
        self.latency_max
    }

    /// Exact 99th-percentile latency: the latency at sorted index
    /// `min(n-1, n·99/100)`, matching a sort over the full log.
    pub fn p99_latency(&self) -> u64 {
        if self.delivered == 0 {
            return 0;
        }
        let idx = (self.delivered - 1).min(self.delivered * 99 / 100);
        let mut seen = 0u64;
        for (latency, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen > idx {
                return latency as u64;
            }
        }
        unreachable!("histogram counts sum to the delivered count")
    }

    /// The latency histogram (`[l]` = deliveries with latency `l`).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }
}

/// Aggregate of the always-on per-router observability counters,
/// produced by [`Network::metrics`]. Link utilization is flits moved per
/// link-cycle: `forwarded_flits / (links * cycles)` on average, and the
/// busiest single link's `flits / cycles` at the max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetMetrics {
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Flits that traversed an inter-router link.
    pub forwarded_flits: u64,
    /// Flits ejected at their destination's local port.
    pub ejected_flits: u64,
    /// Flits carried by the single busiest link.
    pub busiest_link_flits: u64,
    /// Inter-router links present in the mesh (directed).
    pub links: u64,
    /// Cycles routers spent active (holding flits or pending injections)
    /// without moving anything — backpressure and lost arbitration.
    pub stall_cycles: u64,
    /// Deepest input-FIFO occupancy seen on any (router, port).
    pub fifo_high_water: u32,
    /// Identity of the busiest inter-router link (`None` when no flit has
    /// crossed a link). Ties break to the lowest (router, port) index, so
    /// the answer is deterministic. (Missing in older serialized metrics;
    /// the serde shim defaults an absent `Option` field to `None`.)
    pub busiest_link: Option<LinkRef>,
}

impl NetMetrics {
    /// Mean utilization across all links (flits per link-cycle, 0..=1).
    pub fn mean_link_utilization(&self) -> f64 {
        if self.links == 0 || self.cycles == 0 {
            return 0.0;
        }
        self.forwarded_flits as f64 / (self.links * self.cycles) as f64
    }

    /// Utilization of the busiest link (flits per cycle on it, 0..=1).
    pub fn max_link_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.busiest_link_flits as f64 / self.cycles as f64
    }
}

/// Configuration for the opt-in spatial accounting layer (see
/// [`Network::enable_spatial`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpatialConfig {
    /// Close a per-link utilization/stall/FIFO-high-water window every
    /// this many cycles. `0` disables windowing: only the cumulative
    /// matrices and flow totals are maintained.
    pub window: u64,
    /// Record per-(src, dst) flow totals at injection and delivery.
    pub flows: bool,
    /// Retain at most this many closed windows; older ones are dropped
    /// (counted by [`Network::spatial_evicted`]). Windows with no traffic,
    /// stalls, or buffered flits are never recorded at all, so a long
    /// idle span costs nothing.
    pub max_windows: usize,
}

impl Default for SpatialConfig {
    fn default() -> Self {
        SpatialConfig {
            window: 1024,
            flows: true,
            max_windows: 256,
        }
    }
}

impl SpatialConfig {
    /// Spatial accounting attached but inert: no windows, no flow map.
    /// Pays only the per-step/per-send `Option` branch — the configuration
    /// the `noc_spatial_off` bench gate holds to ≥0.98x of baseline.
    pub fn minimal() -> Self {
        SpatialConfig {
            window: 0,
            flows: false,
            max_windows: 0,
        }
    }

    /// Windowed matrices plus flow accounting with the given window size
    /// (clamped to at least 1).
    pub fn windowed(window: u64) -> Self {
        SpatialConfig {
            window: window.max(1),
            ..SpatialConfig::default()
        }
    }
}

/// Per-(source, destination) traffic totals, keyed by router coordinates
/// and accumulated on the shared injection/delivery paths — so the map is
/// identical whether the network is stepped directly or driven by the
/// hybrid engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTotals {
    /// Packets injected.
    pub packets: u64,
    /// Payload bytes injected.
    pub bytes: u64,
    /// Flits injected (`ceil(bytes / flit_payload)`, min 1 per packet).
    pub flits: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Sum of end-to-end latencies of delivered packets, in cycles.
    pub latency_sum: u64,
}

/// One closed spatial-accounting window: per-(router, output-port) deltas
/// over `[start, end)` cycles. Only windows with activity are recorded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpatialWindow {
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered (`start + window`).
    pub end: u64,
    /// Flits moved per (router, output port) during the window.
    pub link_flits: Vec<[u64; PORTS]>,
    /// Stalled cycles per router during the window.
    pub stall_cycles: Vec<u64>,
    /// Input-FIFO high-water mark per (router, port) observed during the
    /// window (occupancy resets the mark at each window boundary).
    pub fifo_hwm: Vec<[u8; PORTS]>,
}

/// Per-(src, dst) flow storage behind [`Network::flow_totals`]. The
/// send/deliver paths update it once per packet, so lookups must be O(1)
/// — a tree lookup here cost double-digit percent of wall-clock at light
/// load. Meshes whose n² pair count fits a sane memory budget get a
/// dense table with one slot per ordered pair; larger meshes fall back
/// to a map keyed by the packed pair index (cheaper to compare than the
/// (Coord, Coord) tuples it replaces).
#[derive(Debug)]
enum FlowStore {
    /// One [`FlowTotals`] slot per (src, dst) pair, indexed
    /// `src_idx · n + dst_idx`. Empty when flow accounting is off.
    Dense(Vec<FlowTotals>),
    /// Sparse fallback keyed `src_idx · n + dst_idx`.
    Sparse(std::collections::BTreeMap<u64, FlowTotals>),
}

impl FlowStore {
    /// Densest table we are willing to allocate: 2²⁰ pairs ≈ 48 MB,
    /// reached at a 32×32 mesh. Beyond that (the pair count grows with
    /// the *fourth* power of the mesh side) traffic is sparse in the
    /// pair space anyway, so the map fallback stays small.
    const DENSE_LIMIT: usize = 1 << 20;

    fn new(n: usize, enabled: bool) -> FlowStore {
        if !enabled {
            // Never indexed: every update site is gated on `cfg.flows`.
            FlowStore::Dense(Vec::new())
        } else if n * n <= Self::DENSE_LIMIT {
            FlowStore::Dense(vec![FlowTotals::default(); n * n])
        } else {
            FlowStore::Sparse(std::collections::BTreeMap::new())
        }
    }

    /// The totals slot for a packed `src_idx · n + dst_idx` pair index.
    #[inline]
    fn at(&mut self, key: u64) -> &mut FlowTotals {
        match self {
            FlowStore::Dense(v) => &mut v[key as usize],
            FlowStore::Sparse(m) => m.entry(key).or_default(),
        }
    }

    /// Materialize the coordinate-keyed view: touched pairs only, in
    /// canonical [`Coord`] order. O(n²) for the dense store — call at
    /// end of run, not per cycle.
    fn snapshot(&self, mesh: Mesh) -> std::collections::BTreeMap<(Coord, Coord), FlowTotals> {
        let n = mesh.len() as u64;
        let unpack = |key: u64| {
            (
                mesh.coord((key / n) as usize),
                mesh.coord((key % n) as usize),
            )
        };
        match self {
            FlowStore::Dense(v) => v
                .iter()
                .enumerate()
                .filter(|(_, t)| **t != FlowTotals::default())
                .map(|(i, &t)| (unpack(i as u64), t))
                .collect(),
            FlowStore::Sparse(m) => m.iter().map(|(&k, &t)| (unpack(k), t)).collect(),
        }
    }
}

/// State for [`Network::enable_spatial`]: window baselines (the cumulative
/// counters at the last window close), the retained closed windows, the
/// lifetime FIFO high-water marks displaced by per-window resets, and the
/// flow map.
#[derive(Debug)]
struct Spatial {
    cfg: SpatialConfig,
    /// First cycle of the currently open window.
    window_start: u64,
    /// Cycle at which the open window closes (`u64::MAX` when windowing
    /// is off, so the hot-loop check never fires).
    next_window: u64,
    /// `link_flits` totals at the last window close.
    base_flits: Vec<[u64; PORTS]>,
    /// `stall_cycles` totals at the last window close.
    base_stalls: Vec<u64>,
    /// Lifetime FIFO high-water marks accumulated across window resets;
    /// [`Network::metrics`] folds these back into `fifo_high_water`.
    hwm_merge: Vec<[u8; PORTS]>,
    /// Closed windows with activity, oldest first.
    windows: Vec<SpatialWindow>,
    /// Closed windows dropped to honour `max_windows`.
    evicted: u64,
    /// Per-(src, dst) totals (unused unless `cfg.flows`).
    flows: FlowStore,
}

/// In-flight packet table exploiting monotonic [`PacketId`] assignment: a
/// sliding window of slots indexed by `id - base`, advanced as the oldest
/// packets complete. O(1) insert/remove with no hashing.
#[derive(Debug, Default)]
struct PacketSlab {
    base: u64,
    slots: VecDeque<Option<InFlight>>,
    live: usize,
}

impl PacketSlab {
    /// Insert the next packet; `id` must be `base + slots.len()`.
    fn insert(&mut self, id: PacketId, f: InFlight) {
        debug_assert_eq!(id.0, self.base + self.slots.len() as u64);
        self.slots.push_back(Some(f));
        self.live += 1;
    }

    fn remove(&mut self, id: PacketId) -> Option<InFlight> {
        let idx = id.0.checked_sub(self.base)? as usize;
        let f = self.slots.get_mut(idx)?.take();
        if f.is_some() {
            self.live -= 1;
            // Slide the window past completed packets so slot count tracks
            // the in-flight span, not the total ever sent.
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        f
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Error from [`Network::run_until_drained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainTimeout {
    /// Packets still undelivered when the cycle budget ran out.
    pub undelivered: usize,
}

impl std::fmt::Display for DrainTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network failed to drain: {} packets in flight",
            self.undelivered
        )
    }
}

impl std::error::Error for DrainTimeout {}

/// [`Network::advance_idle_to`] refused to jump the clock because traffic
/// was still in flight: skipping cycles would erase moves those flits were
/// entitled to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleJumpError {
    /// Packets in flight when the jump was requested.
    pub inflight: usize,
    /// The clock value at the refused jump (unchanged by the call).
    pub at: u64,
}

impl std::fmt::Display for IdleJumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot skip ahead at cycle {}: {} packets in flight",
            self.at, self.inflight
        )
    }
}

impl std::error::Error for IdleJumpError {}

/// Read-only view of the state the decide phase consults: topology and
/// the pre-move FIFO snapshot. One `DecideCtx` is shared by every router
/// deciding in a [`Network::step`], which is what makes the snapshot
/// semantics (“every router decides against the same pre-move state”)
/// hold by construction.
struct DecideCtx<'a> {
    mesh: Mesh,
    cap: u32,
    buffer_flits: usize,
    nbr: &'a [[u32; PORTS]],
    coords: &'a [Coord],
    port_occ: &'a [[u32; PORTS]],
    occ_mask: &'a [u8],
    fifo: &'a [Flit],
    fifo_head: &'a [u8],
}

impl DecideCtx<'_> {
    /// Front flit of a FIFO the caller knows is non-empty.
    #[inline(always)]
    fn front(&self, router: usize, port: usize) -> Flit {
        debug_assert!(self.port_occ[router][port] > 0, "front of empty FIFO");
        let rp = router * PORTS + port;
        self.fifo[rp * self.buffer_flits + self.fifo_head[rp] as usize]
    }
}

/// Decide one router's moves for this cycle against the shared pre-move
/// snapshot. Mutates only state owned by router `i` (its wormhole locks,
/// arbiter credits, and FIFO high-water marks), so the order routers
/// decide in cannot matter. Returns `None` when the router is active but
/// nothing can move — a stalled cycle the caller accounts for.
#[inline(always)]
fn decide_router(
    cx: &DecideCtx<'_>,
    i: usize,
    locks: &mut [Option<OutputLock>; PORTS],
    lock_mask: &mut u8,
    arbs: &mut [WrrArbiter; PORTS],
    hwm: &mut [u8; PORTS],
) -> Option<PackedMoves> {
    let local = Direction::Local.index();
    let occ = cx.occ_mask[i];
    debug_assert!(occ != 0, "idle router on the active list");

    // High-water marks observed from the post-inject, pre-move snapshot.
    // Every non-empty FIFO belongs to an active router each cycle it is
    // non-empty, so the max over these observations equals the max
    // cycle-boundary occupancy — a definition that, unlike the push-time
    // transient, does not depend on the order moves are applied in.
    let mut hm = occ;
    while hm != 0 {
        let p = hm.trailing_zeros() as usize;
        hm &= hm - 1;
        let o = cx.port_occ[i][p] as u8;
        if o > hwm[p] {
            hwm[p] = o;
        }
    }

    // Lazy downstream-space snapshot: `space`/`known` bitmaps fill in per
    // direction on first use. FIFO lengths don't change until apply, so
    // laziness observes the same snapshot the eager version would.
    let nbr = cx.nbr[i];
    let cap = cx.cap;
    let mut known: u8 = 1 << local; // ejection is always ready
    let mut space: u8 = 1 << local;
    macro_rules! has_space {
        ($d:expr) => {{
            let d: usize = $d;
            let bit = 1u8 << d;
            if known & bit == 0 {
                known |= bit;
                let ok = match nbr[d] {
                    u32::MAX => false,
                    n => cx.port_occ[n as usize][OPP[d]] < cap,
                };
                if ok {
                    space |= bit;
                }
            }
            space & bit != 0
        }};
    }

    let mut busy: u8 = 0;
    let mut n_moves = 0usize;
    let mut packed = [0u8; PORTS];

    // Phase 1: continue established wormholes.
    let mut lm = *lock_mask;
    while lm != 0 {
        let d = lm.trailing_zeros() as usize;
        lm &= lm - 1;
        let lock = locks[d].expect("lock_mask bit without a lock");
        let ib = 1u8 << lock.input;
        if busy & ib != 0 || occ & ib == 0 || !has_space!(d) {
            continue;
        }
        let front = cx.front(i, lock.input);
        if front.packet == lock.packet {
            busy |= ib;
            packed[n_moves] = pack_move(lock.input, d, front.kind.is_tail());
            n_moves += 1;
        }
    }

    // A head flit requests the one XY output toward its destination, so
    // it is computed once per input: `req[d]` collects the requesters of
    // output `d` as a bitmask of input ports. An input requests exactly
    // one output, so the masks stay valid through the arbitration phase.
    let mut req = [0u8; PORTS];
    let mut req_outs: u8 = 0;
    let mut rm = occ & !busy;
    while rm != 0 {
        let p = rm.trailing_zeros() as usize;
        rm &= rm - 1;
        let front = cx.front(i, p);
        if front.kind.is_head() {
            let pick = cx.mesh.xy_route(cx.coords[i], front.dst).index();
            req[pick] |= 1 << p;
            req_outs |= 1 << pick;
        }
    }

    // Phase 2: arbitrate free outputs among head flits.
    let mut am = req_outs & !*lock_mask;
    while am != 0 {
        let d = am.trailing_zeros() as usize;
        am &= am - 1;
        if !has_space!(d) {
            continue;
        }
        let mask = req[d];
        let winner = if mask & (mask - 1) == 0 {
            // Sole requester: it earns its weight and immediately pays the
            // round total (= its own weight), so granting without
            // consulting the arbiter leaves its credits exactly as `grant`
            // would.
            mask.trailing_zeros() as usize
        } else {
            let requesting = std::array::from_fn(|p| mask & (1 << p) != 0);
            arbs[d].grant(requesting).expect("mask non-empty")
        };
        let front = cx.front(i, winner);
        let tail = front.kind.is_tail();
        if !tail {
            locks[d] = Some(OutputLock {
                input: winner,
                packet: front.packet,
            });
            *lock_mask |= 1 << d;
        }
        packed[n_moves] = pack_move(winner, d, tail);
        n_moves += 1;
    }

    if n_moves != 0 {
        Some(PackedMoves {
            router: i as u32,
            n: n_moves as u8,
            moves: packed,
        })
    } else {
        None
    }
}

/// The mesh network simulator (see the module docs for the fast-path
/// design and its cycle-exactness guarantee).
#[derive(Debug)]
pub struct Network {
    cfg: NocConfig,
    /// Packets waiting at each source, oldest first; the front one may be
    /// partly injected.
    inject: Vec<VecDeque<Queued>>,
    inflight: PacketSlab,
    delivered: Vec<DeliveredPacket>,
    record: RecordMode,
    stats: NocStats,
    window_from: Option<u64>,
    window: NocStats,
    cycle: u64,
    next_id: u64,
    /// Bitset of routers with buffered flits or pending injections; the
    /// decide loop walks set bits in index order (sequential access into
    /// the per-router arrays below).
    active_bits: Vec<u64>,
    /// Reusable per-cycle decision buffer.
    moves_scratch: Vec<PackedMoves>,
    /// Steadiness-check scratch: per router, the input ports popped (bits
    /// 0–4) and output ports fed (bits 8–12) by the stepped cycle's moves,
    /// and the input feeding each output (3 bits per output from bit 16).
    /// All zero between checks.
    move_mask: Vec<u32>,
    /// Steadiness-check scratch: the walked chains.
    chains: Chains,
    /// Neighbor router index per output direction (`u32::MAX` at a mesh
    /// edge and for Local), precomputed so the hot loop does no
    /// coordinate arithmetic.
    nbr: Vec<[u32; PORTS]>,
    /// Flits buffered per (router, input port): the length of the
    /// corresponding ring in `fifo`. One contiguous array, so space
    /// snapshots and occupancy checks don't chase pointers.
    port_occ: Vec<[u32; PORTS]>,
    /// Flits awaiting injection per router (the sum of `left` over its
    /// `inject` queue).
    pending: Vec<u32>,
    /// All input-FIFO storage, flat: ring `(router, port)` occupies
    /// `cap` slots starting at `(router * PORTS + port) * cap`. Replaces
    /// per-router `VecDeque`s so the whole mesh's buffered flits share a
    /// few cache lines.
    fifo: Vec<Flit>,
    /// Ring head offset per `(router, port)`.
    fifo_head: Vec<u8>,
    /// Bitmask of non-empty input ports per router (mirrors `port_occ`).
    occ_mask: Vec<u8>,
    /// Wormhole output locks per router.
    locks: Vec<[Option<OutputLock>; PORTS]>,
    /// Bitmask of locked outputs per router (mirrors `locks`).
    lock_mask: Vec<u8>,
    /// Output arbiters per router.
    arbs: Vec<[WrrArbiter; PORTS]>,
    /// Router coordinate by index (avoids a runtime division per lookup).
    coords: Vec<Coord>,
    /// Flits moved per (router, output port). Non-Local ports count link
    /// traversals; Local counts ejections. Plain adds on the apply path —
    /// always on, aggregated by [`Network::metrics`].
    link_flits: Vec<[u64; PORTS]>,
    /// Input-FIFO occupancy high-water mark per (router, port).
    fifo_hwm: Vec<[u8; PORTS]>,
    /// Cycles each router sat on the active list without moving a flit
    /// (backpressure / lost arbitration / full downstream buffers).
    stall_cycles: Vec<u64>,
    /// Flight-recorder hook for packet-lifecycle flow events (`None`
    /// unless the `noc` trace category was enabled at construction or a
    /// tracer was attached explicitly). Timestamps are NoC cycles,
    /// tracks are router indices, the causal id is the packet id.
    trace: Option<Recorder>,
    /// Periodic live-metric publication hook (`None` by default — the
    /// hot loop pays one `Option` check per step). See
    /// [`Network::attach_pulse`].
    pulse: Option<Box<Pulse>>,
    /// Spatial accounting hook (`None` by default — disabled cost is one
    /// `Option` check per step/send/deliver). See
    /// [`Network::enable_spatial`].
    spatial: Option<Box<Spatial>>,
}

/// State for [`Network::attach_pulse`]: pre-resolved gauge handles plus
/// the totals at the previous firing, so each pulse publishes a *window*
/// reading (flits per kilocycle over the last `every` cycles) instead of
/// a lifetime average that flattens out over long runs.
#[derive(Debug)]
struct Pulse {
    every: u64,
    next: u64,
    last_flits: u64,
    last_cycle: u64,
    flits_per_kcycle: std::sync::Arc<hic_obs::Gauge>,
    active_routers: std::sync::Arc<hic_obs::Gauge>,
    inflight_packets: std::sync::Arc<hic_obs::Gauge>,
}

impl Network {
    /// Build an idle network.
    pub fn new(cfg: NocConfig) -> Self {
        assert!(
            (1..=u8::MAX as usize).contains(&cfg.buffer_flits),
            "buffer depth must be 1..=255 flits"
        );
        let nbr = (0..cfg.mesh.len())
            .map(|i| {
                let at = cfg.mesh.coord(i);
                std::array::from_fn(|d| match Direction::ALL[d] {
                    Direction::Local => u32::MAX,
                    dir => cfg
                        .mesh
                        .neighbor(at, dir)
                        .map(|n| cfg.mesh.index(n) as u32)
                        .unwrap_or(u32::MAX),
                })
            })
            .collect();
        let idle = Flit {
            packet: PacketId(0),
            kind: FlitKind::HeadTail,
            dst: Coord::new(0, 0),
            payload: 0,
        };
        Network {
            cfg,
            inject: vec![VecDeque::new(); cfg.mesh.len()],
            inflight: PacketSlab::default(),
            delivered: Vec::new(),
            record: RecordMode::default(),
            stats: NocStats::default(),
            window_from: None,
            window: NocStats::default(),
            cycle: 0,
            next_id: 0,
            active_bits: vec![0; cfg.mesh.len().div_ceil(64)],
            moves_scratch: Vec::new(),
            move_mask: vec![0; cfg.mesh.len()],
            chains: Chains::default(),
            nbr,
            port_occ: vec![[0; PORTS]; cfg.mesh.len()],
            pending: vec![0; cfg.mesh.len()],
            fifo: vec![idle; cfg.mesh.len() * PORTS * cfg.buffer_flits],
            fifo_head: vec![0; cfg.mesh.len() * PORTS],
            occ_mask: vec![0; cfg.mesh.len()],
            locks: vec![[None; PORTS]; cfg.mesh.len()],
            lock_mask: vec![0; cfg.mesh.len()],
            arbs: (0..cfg.mesh.len())
                .map(|_| std::array::from_fn(|_| WrrArbiter::uniform()))
                .collect(),
            coords: (0..cfg.mesh.len()).map(|i| cfg.mesh.coord(i)).collect(),
            link_flits: vec![[0; PORTS]; cfg.mesh.len()],
            fifo_hwm: vec![[0; PORTS]; cfg.mesh.len()],
            stall_cycles: vec![0; cfg.mesh.len()],
            // Auto-attach to the process-global tracer only when the
            // category is already on (e.g. under `hic trace`), so the
            // default cost is a `None` check per instrumented site.
            trace: hic_obs::trace::global()
                .enabled(Category::Noc)
                .then(hic_obs::trace::recorder),
            pulse: None,
            spatial: None,
        }
    }

    /// Turn on spatial accounting: windowed per-link matrices and/or the
    /// per-flow traffic map, per `cfg`. The cumulative per-link counters
    /// are always on regardless ([`Network::link_flit_matrix`]); this
    /// adds the windowed views and flow attribution on top. Enabling is
    /// idempotent in effect but resets any previously collected windows
    /// and flows; enable before injecting traffic.
    pub fn enable_spatial(&mut self, cfg: SpatialConfig) {
        let n = self.cfg.mesh.len();
        self.spatial = Some(Box::new(Spatial {
            cfg,
            window_start: self.cycle,
            next_window: if cfg.window == 0 {
                u64::MAX
            } else {
                self.cycle + cfg.window
            },
            base_flits: self.link_flits.clone(),
            base_stalls: self.stall_cycles.clone(),
            hwm_merge: vec![[0; PORTS]; n],
            windows: Vec::new(),
            evicted: 0,
            flows: FlowStore::new(n, cfg.flows),
        }));
    }

    /// The cumulative flits-moved matrix per (router, output port). The
    /// Local column counts ejections; the other columns count link
    /// traversals. Always maintained (this is the always-on counter
    /// [`Network::metrics`] aggregates), independent of
    /// [`Network::enable_spatial`].
    pub fn link_flit_matrix(&self) -> &[[u64; PORTS]] {
        &self.link_flits
    }

    /// Cumulative stalled cycles per router.
    pub fn stall_matrix(&self) -> &[u64] {
        &self.stall_cycles
    }

    /// Lifetime input-FIFO high-water mark per (router, port), merging the
    /// live marks with any displaced by spatial-window resets.
    pub fn fifo_hwm_matrix(&self) -> Vec<[u8; PORTS]> {
        let mut out = self.fifo_hwm.clone();
        if let Some(sp) = &self.spatial {
            for (row, merge) in out.iter_mut().zip(&sp.hwm_merge) {
                for p in 0..PORTS {
                    row[p] = row[p].max(merge[p]);
                }
            }
        }
        out
    }

    /// Per-(src, dst) flow totals, if spatial flow accounting is on.
    /// Materialized on demand from the O(1) store the send/deliver paths
    /// update — call at end of run, not per cycle.
    pub fn flow_totals(&self) -> Option<std::collections::BTreeMap<(Coord, Coord), FlowTotals>> {
        match &self.spatial {
            Some(sp) if sp.cfg.flows => Some(sp.flows.snapshot(self.cfg.mesh)),
            _ => None,
        }
    }

    /// The retained closed spatial windows (oldest first; quiet windows
    /// are never recorded).
    pub fn spatial_windows(&self) -> &[SpatialWindow] {
        self.spatial.as_ref().map_or(&[], |sp| &sp.windows)
    }

    /// Closed windows dropped to honour
    /// [`max_windows`](SpatialConfig::max_windows).
    pub fn spatial_evicted(&self) -> u64 {
        self.spatial.as_ref().map_or(0, |sp| sp.evicted)
    }

    /// Record the window `[sp.window_start, end)` if it saw any activity
    /// (flits moved, stalls accrued, or buffered flits observed), updating
    /// the baselines and the high-water merge. Returns whether a window
    /// was recorded; a quiet window leaves every baseline untouched.
    fn spatial_close_at(&mut self, sp: &mut Spatial, end: u64) -> bool {
        let mut link_flits = Vec::new();
        let mut stall_cycles = Vec::new();
        let mut fifo_hwm = Vec::new();
        let mut any = false;
        for r in 0..self.link_flits.len() {
            let mut row = [0u64; PORTS];
            for p in 0..PORTS {
                row[p] = self.link_flits[r][p] - sp.base_flits[r][p];
            }
            any |= row.iter().any(|&f| f != 0);
            link_flits.push(row);
            let stalls = self.stall_cycles[r] - sp.base_stalls[r];
            any |= stalls != 0;
            stall_cycles.push(stalls);
            let hwm = self.fifo_hwm[r];
            any |= hwm.iter().any(|&h| h != 0);
            fifo_hwm.push(hwm);
        }
        if !any {
            return false;
        }
        sp.base_flits.copy_from_slice(&self.link_flits);
        sp.base_stalls.copy_from_slice(&self.stall_cycles);
        for r in 0..self.fifo_hwm.len() {
            for p in 0..PORTS {
                sp.hwm_merge[r][p] = sp.hwm_merge[r][p].max(self.fifo_hwm[r][p]);
            }
            self.fifo_hwm[r] = [0; PORTS];
        }
        sp.windows.push(SpatialWindow {
            start: sp.window_start,
            end,
            link_flits,
            stall_cycles,
            fifo_hwm,
        });
        if sp.windows.len() > sp.cfg.max_windows {
            let drop = sp.windows.len() - sp.cfg.max_windows;
            sp.windows.drain(..drop);
            sp.evicted += drop as u64;
        }
        true
    }

    /// Cold path of the spatial hook: close every window whose boundary
    /// the clock has reached. Called from the steppers (at most one
    /// boundary per call) and from [`Network::advance_idle_to`], where the
    /// open window is closed once and the remaining jumped span — idle by
    /// definition — is skipped in O(1).
    #[cold]
    fn spatial_roll(&mut self) {
        let Some(mut sp) = self.spatial.take() else {
            return;
        };
        let w = sp.cfg.window;
        while sp.next_window <= self.cycle {
            let end = sp.next_window;
            let recorded = self.spatial_close_at(&mut sp, end);
            sp.window_start = end;
            sp.next_window = end + w;
            if !recorded && self.is_drained() {
                // The closed window was quiet and nothing can move until
                // the next injection: realign the open window to the last
                // boundary at or before the clock in O(1) instead of
                // iterating per skipped window.
                let skipped = (self.cycle - sp.window_start) / w;
                sp.window_start += skipped * w;
                sp.next_window = sp.window_start + w;
                break;
            }
        }
        self.spatial = Some(sp);
    }

    /// Close the currently open spatial window immediately, recording a
    /// partial window `[start, cycle)` if anything happened in it. Call
    /// at end of run before reading [`Network::spatial_windows`] so the
    /// tail of the traffic is not lost in a never-closed window; the next
    /// window (if the run continues) restarts at the current cycle.
    pub fn flush_spatial_window(&mut self) {
        let Some(mut sp) = self.spatial.take() else {
            return;
        };
        if sp.cfg.window != 0 && self.cycle > sp.window_start {
            self.spatial_close_at(&mut sp, self.cycle);
            sp.window_start = self.cycle;
            sp.next_window = self.cycle + sp.cfg.window;
        }
        self.spatial = Some(sp);
    }

    /// Publish live gauges into `reg` every `every` cycles while the
    /// network steps: `<prefix>.live.flits_per_kcycle` (flits forwarded
    /// per 1000 cycles over the last window), `<prefix>.live.active_routers`
    /// and `<prefix>.live.inflight_packets`. This is the mid-run feed for
    /// the continuous-telemetry sampler (`hic top`, `/metrics`) — the
    /// end-of-run [`Network::publish_metrics`] totals are unaffected.
    /// Costs one branch per [`Network::step`] plus an O(routers) sweep
    /// once per window.
    pub fn attach_pulse(&mut self, reg: &hic_obs::Registry, prefix: &str, every: u64) {
        let every = every.max(1);
        self.pulse = Some(Box::new(Pulse {
            every,
            next: self.cycle + every,
            last_flits: self.forwarded_flits_total(),
            last_cycle: self.cycle,
            flits_per_kcycle: reg.gauge(&format!("{prefix}.live.flits_per_kcycle")),
            active_routers: reg.gauge(&format!("{prefix}.live.active_routers")),
            inflight_packets: reg.gauge(&format!("{prefix}.live.inflight_packets")),
        }));
    }

    /// Lifetime forwarded-flit total (non-Local link traversals).
    fn forwarded_flits_total(&self) -> u64 {
        let local = Direction::Local.index();
        let mut total = 0;
        for per_router in &self.link_flits {
            for (p, &flits) in per_router.iter().enumerate() {
                if p != local {
                    total += flits;
                }
            }
        }
        total
    }

    /// Cold path of the pulse hook: publish the window's live gauges and
    /// schedule the next firing.
    #[cold]
    fn pulse_fire(&mut self) {
        let flits = self.forwarded_flits_total();
        let active = self.active_routers() as u64;
        let inflight = self.inflight.len() as u64;
        let Some(p) = &mut self.pulse else { return };
        let dc = self.cycle - p.last_cycle;
        if let Some(rate) = ((flits - p.last_flits) * 1000).checked_div(dc) {
            p.flits_per_kcycle.set(rate);
        }
        p.active_routers.set(active);
        p.inflight_packets.set(inflight);
        p.last_flits = flits;
        p.last_cycle = self.cycle;
        p.next = self.cycle + p.every;
    }

    /// Route this network's packet-lifecycle events to `tracer` (used by
    /// tests and tools that keep a private tracer instead of the global
    /// one). Recording still honours the tracer's enabled categories and
    /// its `noc` sampling divisor.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace = Some(tracer.recorder());
    }

    #[inline]
    fn fifo_push(&mut self, router: usize, port: usize, flit: Flit) {
        let cap = self.cfg.buffer_flits;
        let len = self.port_occ[router][port] as usize;
        debug_assert!(len < cap, "input FIFO overflow");
        let rp = router * PORTS + port;
        // Conditional wrap instead of `%`: cap is a runtime value, so a
        // modulo would put a hardware divide on the address path.
        let mut slot = self.fifo_head[rp] as usize + len;
        if slot >= cap {
            slot -= cap;
        }
        self.fifo[rp * cap + slot] = flit;
        self.port_occ[router][port] += 1;
        self.occ_mask[router] |= 1 << port;
        // High-water marks are observed in the decide phase (from the
        // post-inject, pre-move snapshot) rather than here: the push-time
        // transient depends on the order moves are applied in.
    }

    #[inline]
    fn fifo_pop(&mut self, router: usize, port: usize) -> Flit {
        debug_assert!(self.port_occ[router][port] > 0, "pop from empty FIFO");
        let cap = self.cfg.buffer_flits;
        let rp = router * PORTS + port;
        let head = self.fifo_head[rp] as usize;
        let flit = self.fifo[rp * cap + head];
        let next = head + 1;
        self.fifo_head[rp] = if next == cap { 0 } else { next } as u8;
        self.port_occ[router][port] -= 1;
        if self.port_occ[router][port] == 0 {
            self.occ_mask[router] &= !(1 << port);
        }
        flit
    }

    /// Jump the clock forward to `cycle` without stepping. Only valid when
    /// the network is completely idle (nothing would have moved anyway).
    ///
    /// With traffic in flight the jump is refused with [`IdleJumpError`]
    /// instead of aborting, so callers — the hybrid engine's skip-ahead,
    /// cosim's compute-phase fast-forward — can probe eligibility in
    /// release builds and fall back to stepping. A target at or before the
    /// current cycle saturates: the clock never rewinds. Returns the clock
    /// after the (possibly saturated) jump.
    pub fn advance_idle_to(&mut self, cycle: u64) -> Result<u64, IdleJumpError> {
        if !self.is_drained() {
            return Err(IdleJumpError {
                inflight: self.inflight.len(),
                at: self.cycle,
            });
        }
        let target = self.cycle.max(cycle);
        if let Some(p) = self.pulse.as_ref().filter(|p| target >= p.next) {
            // Fire where stepping would have: at the first boundary in the
            // span (it reports the flits moved before the drain), and at
            // the last one, since every firing between reads the same
            // idle zeros.
            let (first, every) = (p.next, p.every);
            let last = first + (target - first) / every * every;
            self.cycle = first;
            self.pulse_fire();
            if last > first {
                self.cycle = last;
                self.pulse_fire();
            }
        }
        self.cycle = target;
        if self
            .spatial
            .as_ref()
            .is_some_and(|s| self.cycle >= s.next_window)
        {
            // Close the window that was open when traffic drained, then
            // realign past the idle span — so the recorded window sequence
            // is identical whether the quiet region was stepped or jumped.
            self.spatial_roll();
        }
        Ok(self.cycle)
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Choose how much per-packet information to retain (see
    /// [`RecordMode`]). Set this before injecting traffic; switching modes
    /// mid-run does not clear what the previous mode already logged.
    pub fn set_record_mode(&mut self, mode: RecordMode) {
        self.record = mode;
    }

    /// Hand a message to the source node for injection as one packet. It
    /// waits in the source's queue as a single entry, and its flits are
    /// made one at a time as buffer space lets them into the network.
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
        let queued = Queued::new(&pkt, self.cfg.flit_payload);
        self.inject[node].push_back(queued);
        self.pending[node] += queued.flits;
        if let Some(sp) = &mut self.spatial {
            if sp.cfg.flows {
                let key =
                    node as u64 * self.cfg.mesh.len() as u64 + self.cfg.mesh.index(dst) as u64;
                let f = sp.flows.at(key);
                f.packets += 1;
                f.bytes += bytes;
                f.flits += queued.flits as u64;
            }
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
        if let Some(tr) = &self.trace {
            if tr.sampled(Category::Noc, id.0) {
                tr.record(Event {
                    ts: self.cycle,
                    dur: 0,
                    id: id.0,
                    arg: bytes,
                    name: "packet",
                    detail: Detail::EMPTY,
                    phase: Phase::FlowBegin,
                    cat: Category::Noc,
                    tid: node as u32,
                });
            }
        }
        self.activate(node);
        id
    }

    #[inline]
    fn activate(&mut self, router: usize) {
        self.active_bits[router >> 6] |= 1 << (router & 63);
    }

    fn deliver(&mut self, id: PacketId, fin: InFlight) {
        let delivered = self.cycle + 1;
        let latency = delivered - fin.injected;
        if let Some(tr) = &self.trace {
            if tr.sampled(Category::Noc, id.0) {
                // `end_ts - begin_ts` equals `latency` by construction:
                // the begin event carries the injection cycle and the
                // tail ejects at `cycle + 1` — exactly the stepper's own
                // accounting above. The latency also rides along in
                // `arg` so trace consumers need no subtraction.
                tr.record(Event {
                    ts: delivered,
                    dur: 0,
                    id: id.0,
                    arg: latency,
                    name: "packet",
                    detail: Detail::EMPTY,
                    phase: Phase::FlowEnd,
                    cat: Category::Noc,
                    tid: self.cfg.mesh.index(fin.dst) as u32,
                });
            }
        }
        self.stats.record(latency, fin.bytes);
        if let Some(sp) = &mut self.spatial {
            if sp.cfg.flows {
                let key = self.cfg.mesh.index(fin.src) as u64 * self.cfg.mesh.len() as u64
                    + self.cfg.mesh.index(fin.dst) as u64;
                let f = sp.flows.at(key);
                f.delivered += 1;
                f.latency_sum += latency;
            }
        }
        if let Some(from) = self.window_from {
            if fin.injected >= from {
                self.window.record(latency, fin.bytes);
            }
        }
        if !matches!(self.record, RecordMode::Stats) {
            self.delivered.push(DeliveredPacket {
                id,
                src: fin.src,
                dst: fin.dst,
                bytes: fin.bytes,
                injected: fin.injected,
                delivered,
            });
        }
    }

    /// Drain pending injections into Local FIFOs (as space allows) for
    /// every active router, making each flit as it enters. Runs before
    /// decide so the space snapshot includes this cycle's injections —
    /// injection only fills a router's own Local FIFO, which no other
    /// router's snapshot reads, so a separate up-front pass is
    /// observationally identical to the old fused inject-while-deciding
    /// walk.
    #[inline]
    fn inject_pending(&mut self) {
        let local = Direction::Local.index();
        let cap = self.cfg.buffer_flits as u32;
        for w in 0..self.active_bits.len() {
            let mut word = self.active_bits[w];
            while word != 0 {
                let i = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                while self.pending[i] > 0 && self.port_occ[i][local] < cap {
                    let flit = queue_pop(&mut self.inject[i], self.cfg.flit_payload);
                    self.fifo_push(i, local, flit);
                    self.pending[i] -= 1;
                }
            }
        }
    }

    /// Advance one cycle.
    ///
    /// An injection pass over the active bitset, then a decide pass
    /// ([`decide_router`] per active router), then an apply pass that
    /// moves the decided flits and retires routers that went idle.
    /// Deciding never touches FIFOs, so
    /// every router decides against the pre-move state; per-router masks
    /// (`occ_mask`, `lock_mask`) keep the decide work proportional to the
    /// ports actually in use, and the downstream-space snapshot is
    /// computed lazily, one direction at a time, as the decision logic
    /// first asks for it.
    pub fn step(&mut self) {
        self.step_cycle::<false>();
    }

    /// One cycle of [`Network::step`]. With `WATCH`, also returns whether
    /// the cycle may have been *steady* (see [`Network::advance`]): flits
    /// moved, and as many left link FIFOs as entered them. That is the
    /// cheap half of the check; [`Network::advance_steady`] does the rest.
    /// Without `WATCH` the bookkeeping compiles away and this is the plain
    /// step.
    #[inline(always)]
    fn step_cycle<const WATCH: bool>(&mut self) -> bool {
        let local = Direction::Local.index();
        self.inject_pending();
        // Link-FIFO pops minus pushes; a steady cycle nets zero.
        let mut link_net = 0i32;

        let mut moves = std::mem::take(&mut self.moves_scratch);
        moves.clear();
        let cx = DecideCtx {
            mesh: self.cfg.mesh,
            cap: self.cfg.buffer_flits as u32,
            buffer_flits: self.cfg.buffer_flits,
            nbr: &self.nbr,
            coords: &self.coords,
            port_occ: &self.port_occ,
            occ_mask: &self.occ_mask,
            fifo: &self.fifo,
            fifo_head: &self.fifo_head,
        };
        for w in 0..self.active_bits.len() {
            let mut word = self.active_bits[w];
            while word != 0 {
                let i = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                match decide_router(
                    &cx,
                    i,
                    &mut self.locks[i],
                    &mut self.lock_mask[i],
                    &mut self.arbs[i],
                    &mut self.fifo_hwm[i],
                ) {
                    Some(pm) => moves.push(pm),
                    // Active (it holds flits or pending injections) but
                    // nothing moved: a stalled cycle for this router.
                    None => self.stall_cycles[i] += 1,
                }
            }
        }

        // Per-hop tracing decisions hoisted out of the apply loop: one
        // bool when disabled, the sampling divisor once when enabled.
        let trace_on = self
            .trace
            .as_ref()
            .is_some_and(|tr| tr.enabled(Category::Noc));
        let trace_sample = match (&self.trace, trace_on) {
            (Some(tr), true) => tr.sample(Category::Noc),
            _ => 1,
        };

        // Apply, with retirement fused in: a router can only go idle by
        // moving its flits out, so only routers with moves need the idle
        // check. (A push from a later move re-activates its receiver, in
        // either order.) Skipping an idle router afterwards is exact: its
        // decide is a no-op that mutates nothing.
        for &set in &moves {
            let i = set.router as usize;
            for &pm in &set.moves[..set.n as usize] {
                let (input, output, tail) = unpack_move(pm);
                let flit = self.fifo_pop(i, input);
                if WATCH {
                    link_net += (input != local) as i32 - (output != local) as i32;
                }
                self.link_flits[i][output] += 1;
                if tail {
                    self.locks[i][output] = None;
                    self.lock_mask[i] &= !(1 << output);
                }
                if output == local {
                    if flit.kind.is_tail() {
                        let fin = self
                            .inflight
                            .remove(flit.packet)
                            .expect("tail of unknown packet");
                        self.deliver(flit.packet, fin);
                    }
                } else {
                    // One flow step per link traversal of the *head*
                    // flit: the packet's forwarding path without the
                    // body-flit noise.
                    if trace_on && flit.kind.is_head() && flit.packet.0.is_multiple_of(trace_sample)
                    {
                        if let Some(tr) = &self.trace {
                            tr.record(Event {
                                ts: self.cycle + 1,
                                dur: 0,
                                id: flit.packet.0,
                                arg: output as u64,
                                name: "hop",
                                detail: Detail::EMPTY,
                                phase: Phase::FlowStep,
                                cat: Category::Noc,
                                tid: i as u32,
                            });
                        }
                    }
                    let n_idx = self.nbr[i][output] as usize;
                    self.fifo_push(n_idx, OPP[output], flit);
                    self.activate(n_idx);
                }
            }
            if self.occ_mask[i] == 0 && self.pending[i] == 0 {
                self.active_bits[i >> 6] &= !(1 << (i & 63));
            }
        }
        let steady = WATCH && link_net == 0 && !moves.is_empty();
        self.moves_scratch = moves;

        self.cycle += 1;
        self.fire_boundaries();
        steady
    }

    /// Fire the pulse and close the spatial window when the clock has
    /// reached their next boundary (pulse first, as a stepped cycle does).
    #[inline(always)]
    fn fire_boundaries(&mut self) {
        if self.pulse.as_ref().is_some_and(|p| self.cycle >= p.next) {
            self.pulse_fire();
        }
        if self
            .spatial
            .as_ref()
            .is_some_and(|s| self.cycle >= s.next_window)
        {
            self.spatial_roll();
        }
    }

    /// Advance at least one and at most `limit` cycles, with exactly the
    /// result of calling [`Network::step`] that many times, and return
    /// the cycles advanced (0, without stepping, when `limit` is 0).
    ///
    /// The first cycle is stepped. It is *steady* when every link FIFO
    /// ended it as full as it began and every popped Local FIFO still has
    /// flits to inject. Then the next cycle sees the same occupancies,
    /// arbiter credits and blocked heads, and each router repeats its
    /// moves for as long as each moving FIFO's front is a Body or Tail
    /// flit of the packet holding its output — or, once a tail has
    /// released the output, the next packet's head, routed the same way
    /// with no rival requester. That is a worm streaming through its
    /// established path, and handing the path to the next worm of the same
    /// flow. The repeats are applied in one pass (see
    /// [`Network::advance_steady`]) up to the first cycle that breaks the
    /// pattern or delivers a packet, and never past the next spatial
    /// window boundary, the next pulse firing or `limit`.
    pub fn advance(&mut self, limit: u64) -> u64 {
        if limit == 0 {
            return 0;
        }
        if !self.step_cycle::<true>() || limit == 1 {
            return 1;
        }
        1 + self.advance_steady(limit - 1)
    }

    /// Jump up to `limit` cycles after a stepped cycle that passed the
    /// cheap steadiness test, and return how many were jumped (0 when the
    /// full check fails). Cold relative to stepping: it runs once per
    /// steady run, not once per cycle.
    ///
    /// The full check pairs every move with its neighbours through the
    /// per-router input/output masks: each flit pushed into a link FIFO
    /// meets a pop from that FIFO, and each popped link FIFO was fed by an
    /// upstream move, so no link FIFO's occupancy changed. Local FIFOs
    /// need no such check, as the injection pass settles them: a popped
    /// one with flits left to inject was filled before the pop, so it sits
    /// one below capacity and takes exactly one flit per cycle from here
    /// on (hence the cap on `k` by the flits left); one that was not
    /// popped is full or has nothing left, so it takes none. No Local
    /// FIFO's occupancy is read by another router's decide. Moving FIFOs
    /// then form chains from a source's inject queue to an ejecting port,
    /// and [`Network::steady_horizon`] finds how long every chain repeats.
    /// The jump adds `k` to each moved `link_flits` entry and to each
    /// stalled active router's `stall_cycles`, shifts each chain's
    /// conveyor by `k`, hands each output to the last head that crossed
    /// it, delivers the packets whose tails eject on the last cycle, and
    /// fires the pulse and window boundaries it lands on.
    fn advance_steady(&mut self, limit: u64) -> u64 {
        let local = Direction::Local.index();
        let mut k = limit;
        if let Some(sp) = &self.spatial {
            // The stepped cycle observed the FIFO high-water marks; if it
            // closed a window, that observation left with the window and
            // the next cycle must be stepped to re-observe them.
            if sp.window_start == self.cycle {
                return 0;
            }
            k = k.min(sp.next_window - self.cycle);
        }
        if let Some(p) = &self.pulse {
            k = k.min(p.next - self.cycle);
        }
        let moves = std::mem::take(&mut self.moves_scratch);
        for set in &moves {
            let mut mask = 0u32;
            for &pm in &set.moves[..set.n as usize] {
                let (input, output, _) = unpack_move(pm);
                mask |= (1 << input) | (1 << (output + 8)) | ((input as u32) << (16 + 3 * output));
            }
            self.move_mask[set.router as usize] = mask;
        }
        let popped = |mask: &[u32], r: u32, port: usize| {
            r != u32::MAX && mask[r as usize] & (1 << port) != 0
        };
        let fed = |mask: &[u32], r: u32, port: usize| {
            r != u32::MAX && mask[r as usize] & (1 << (port + 8)) != 0
        };
        'check: for set in &moves {
            let i = set.router as usize;
            for &pm in &set.moves[..set.n as usize] {
                let (input, output, _) = unpack_move(pm);
                let ok = (output == local
                    || popped(&self.move_mask, self.nbr[i][output], OPP[output]))
                    && if input == local {
                        self.pending[i] > 0
                    } else {
                        fed(&self.move_mask, self.nbr[i][input], OPP[input])
                    };
                if !ok {
                    k = 0;
                    break 'check;
                }
                if input == local {
                    k = k.min(self.pending[i] as u64);
                }
            }
        }
        if k != 0 {
            // Head hops and deliveries record trace events, which a jump
            // does not replay: while tracing, only Body flits repeat.
            let strict = self
                .trace
                .as_ref()
                .is_some_and(|tr| tr.enabled(Category::Noc));
            k = self.steady_horizon(&moves, k, strict);
        }
        if k != 0 {
            self.jump_steady(&moves, k);
        }
        for set in &moves {
            self.move_mask[set.router as usize] = 0;
        }
        self.moves_scratch = moves;
        k
    }

    /// Flit `s` (0 = front, `s` below the buffer depth) of FIFO
    /// `(router, port)`.
    #[inline]
    fn fifo_at(&self, router: usize, port: usize, s: usize) -> Flit {
        let cap = self.cfg.buffer_flits;
        let rp = router * PORTS + port;
        self.fifo[rp * cap + wrap(self.fifo_head[rp] as usize + s, cap)]
    }

    /// Whether an input of `router` other than `input` holds a head flit
    /// requesting `output`: a rival for the output once the worm holding
    /// it releases it.
    fn rival_for(&self, router: usize, input: usize, output: usize) -> bool {
        let others = self.occ_mask[router] & !(1 << input);
        (0..PORTS).any(|q| {
            others & (1 << q) != 0 && {
                let f = self.fifo_at(router, q, 0);
                f.kind.is_head()
                    && self.cfg.mesh.xy_route(self.coords[router], f.dst).index() == output
            }
        })
    }

    /// Walk every chain from its ejecting FIFO up to its source's Local
    /// FIFO into `chains`, and return the horizon: `k` lowered to the
    /// number of cycles every chain FIFO repeats its move.
    ///
    /// A chain's flits form one conveyor — the ejecting FIFO front first,
    /// then each upstream FIFO, then the inject queue — and the FIFO at
    /// offset `off` sees the conveyor from `off` onwards at its front, one
    /// flit per cycle. A packet's flits are contiguous on it, so only the
    /// head and tail flits ("marks", recorded once per chain) can change a
    /// FIFO's decision. In the inject queue the marks sit at packet
    /// boundaries (an unstarted packet's head, each packet's tail), so
    /// they cost one step per queued packet in reach, not one per flit. A
    /// FIFO repeats its move while its output stays held (Body flits,
    /// then the tail, which releases it) and, once a tail has released
    /// the output, while the next flit is the next packet's head, routed
    /// to the same output with no rival requester (a sole requester is
    /// granted without touching the arbiter). With
    /// `strict`, no mark may move. A tail leaving through Local delivers
    /// its packet, and the horizon ends with that cycle.
    fn steady_horizon(&mut self, moves: &[PackedMoves], mut k: u64, strict: bool) -> u64 {
        let local = Direction::Local.index();
        let mut ch = std::mem::take(&mut self.chains);
        ch.clear();
        'chains: for set in moves {
            for &pm in &set.moves[..set.n as usize] {
                let (input, output, _) = unpack_move(pm);
                if output != local {
                    continue;
                }
                let first_hop = ch.hops.len();
                let (mut r, mut p, mut out) = (set.router as usize, input, local);
                let mut off = 0u32;
                loop {
                    ch.hops.push(Hop {
                        router: r as u32,
                        port: p as u8,
                        out: out as u8,
                        off,
                    });
                    off += self.port_occ[r][p];
                    if p == local {
                        break;
                    }
                    // XY routes have no cyclic channel dependencies, so
                    // the walk ends within one hop per router.
                    if ch.hops.len() - first_hop > self.nbr.len() {
                        k = 0;
                        break 'chains;
                    }
                    let u = self.nbr[r][p] as usize;
                    out = OPP[p];
                    p = (self.move_mask[u] >> (16 + 3 * out)) as usize & 7;
                    r = u;
                }
                let hops = first_hop..ch.hops.len();
                let src = r;
                // Record the marks any hop can reach in `k` cycles. The
                // ejecting FIFO stops at the first tail, so no hop reaches
                // further than the source's offset past it.
                let first_mark = ch.marks.len();
                let fifo_len = off as usize;
                let queue = &self.inject[src];
                let avail = fifo_len + self.pending[src] as usize;
                let src_off = ch.hops[hops.end - 1].off as usize;
                let mut reach = avail.min(src_off.saturating_add(k as usize));
                let mut mark = |pos: usize, f: Flit, reach: &mut usize| {
                    if f.kind != FlitKind::Body {
                        if f.kind.is_tail() {
                            *reach = (*reach).min(src_off + pos + 1);
                        }
                        ch.marks.push((pos as u32, f));
                    }
                };
                for h in &ch.hops[hops.clone()] {
                    let (hr, hp) = (h.router as usize, h.port as usize);
                    for s in 0..self.port_occ[hr][hp] as usize {
                        mark(h.off as usize + s, self.fifo_at(hr, hp, s), &mut reach);
                    }
                }
                // In the queue the marks sit at packet boundaries: an
                // unstarted packet's head, and every packet's tail.
                let fp = self.cfg.flit_payload;
                let mut pos = fifo_len;
                for q in queue {
                    if q.left == q.flits {
                        if pos >= reach {
                            break;
                        }
                        mark(pos, q.flit(0, fp), &mut reach);
                    }
                    let tail = pos + q.left as usize - 1;
                    if q.flits > 1 {
                        if tail >= reach {
                            break;
                        }
                        mark(tail, q.flit(q.flits - 1, fp), &mut reach);
                    }
                    pos = tail + 1;
                }
                let marks = first_mark..ch.marks.len();
                for h in &ch.hops[hops.clone()] {
                    let (r, p, out) = (h.router as usize, h.port as usize, h.out as usize);
                    let from = h.off as usize;
                    let mut run = k.min((avail - from) as u64);
                    // Whether a packet holds the output. Packets are
                    // contiguous, so a released output always meets the
                    // next packet's head right behind the tail.
                    let mut held = self.locks[r][out].is_some();
                    let mut rival = None;
                    for &(pos, f) in &ch.marks[marks.clone()] {
                        let Some(e) = (pos as usize).checked_sub(from).map(|e| e as u64) else {
                            continue;
                        };
                        if e >= run {
                            break;
                        }
                        let ok = !strict
                            && if held {
                                f.kind == FlitKind::Tail
                            } else {
                                f.kind.is_head()
                                    && self.cfg.mesh.xy_route(self.coords[r], f.dst).index() == out
                                    && !*rival.get_or_insert_with(|| self.rival_for(r, p, out))
                            };
                        if !ok {
                            run = e;
                            break;
                        }
                        held = !f.kind.is_tail();
                        if !held && out == local {
                            run = e + 1;
                            break;
                        }
                    }
                    k = k.min(run);
                    if k == 0 {
                        break 'chains;
                    }
                }
                ch.spans.push(ChainSpan { hops, marks });
            }
        }
        self.chains = ch;
        k
    }

    /// Apply `k` repetitions of the cycle just stepped (the chains are in
    /// `chains`, the moves in `moves`).
    fn jump_steady(&mut self, moves: &[PackedMoves], k: u64) {
        let local = Direction::Local.index();
        let cap = self.cfg.buffer_flits;
        // Moves repeat; every other active router stalls again. (Moves
        // are listed in router order, as the decide pass walked them.)
        let mut next = moves.iter().peekable();
        for w in 0..self.active_bits.len() {
            let mut word = self.active_bits[w];
            while word != 0 {
                let i = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if next.peek().is_some_and(|set| set.router as usize == i) {
                    next.next();
                } else {
                    self.stall_cycles[i] += k;
                }
            }
        }
        for set in moves {
            for &pm in &set.moves[..set.n as usize] {
                let (_, output, _) = unpack_move(pm);
                self.link_flits[set.router as usize][output] += k;
            }
        }
        // Deliveries happen only on the last cycle, which `deliver` stamps
        // `cycle + 1`.
        self.cycle += k - 1;
        let ch = std::mem::take(&mut self.chains);
        for span in &ch.spans {
            let chain = &ch.hops[span.hops.clone()];
            let marks = &ch.marks[span.marks.clone()];
            // Hand each output to the last head that crossed it, or
            // release it after a tail; a tail crossing Local on the last
            // cycle delivers its packet.
            for h in chain {
                let (r, out) = (h.router as usize, h.out as usize);
                let crossed = h.off as u64..h.off as u64 + k;
                let Some(&(pos, f)) = marks.iter().rev().find(|m| crossed.contains(&(m.0 as u64)))
                else {
                    continue;
                };
                if f.kind.is_tail() {
                    self.locks[r][out] = None;
                    self.lock_mask[r] &= !(1 << out);
                    if out == local {
                        debug_assert_eq!(pos as u64, h.off as u64 + k - 1);
                        let fin = self
                            .inflight
                            .remove(f.packet)
                            .expect("tail of unknown packet");
                        self.deliver(f.packet, fin);
                    }
                } else {
                    self.locks[r][out] = Some(OutputLock {
                        input: h.port as usize,
                        packet: f.packet,
                    });
                    self.lock_mask[r] |= 1 << out;
                }
            }
            let occ = |h: &Hop| self.port_occ[h.router as usize][h.port as usize] as usize;
            let src = chain[chain.len() - 1].router as usize;
            let total = chain[chain.len() - 1].off as usize + occ(&chain[chain.len() - 1]);
            // Each FIFO's new contents start `k` slots further along the
            // conveyor, so rewriting downstream first reads only untouched
            // flits.
            for (j, h) in chain.iter().enumerate() {
                let (r, p) = (h.router as usize, h.port as usize);
                let c = occ(h);
                let rp = r * PORTS + p;
                let head = wrap(self.fifo_head[rp] as usize + (k % cap as u64) as usize, cap);
                for s in c.saturating_sub(k as usize)..c {
                    let pos = h.off as usize + k as usize + s;
                    let flit = if pos >= total {
                        queue_at(&self.inject[src], pos - total, self.cfg.flit_payload)
                    } else {
                        let up = j + chain[j..].partition_point(|u| u.off as usize <= pos) - 1;
                        let (ur, up_) = (chain[up].router as usize, chain[up].port as usize);
                        self.fifo_at(ur, up_, pos - chain[up].off as usize)
                    };
                    self.fifo[rp * cap + wrap(head + s, cap)] = flit;
                }
                self.fifo_head[rp] = head as u8;
            }
            queue_consume(&mut self.inject[src], k);
            self.pending[src] -= k as u32;
            if self.pending[src] == 0 && self.occ_mask[src] == 0 {
                // A one-flit-buffer source (empty between cycles) that
                // injected its last flit: stepping retires it after the pop.
                self.active_bits[src >> 6] &= !(1 << (src & 63));
            }
        }
        self.chains = ch;
        self.cycle += 1;
        self.fire_boundaries();
    }

    /// Aggregate the always-on per-router observability counters (see
    /// [`NetMetrics`]). O(routers); call once per run, not per cycle.
    pub fn metrics(&self) -> NetMetrics {
        let local = Direction::Local.index();
        let mut m = NetMetrics {
            cycles: self.cycle,
            ..NetMetrics::default()
        };
        for r in 0..self.link_flits.len() {
            for p in 0..PORTS {
                let flits = self.link_flits[r][p];
                if p == local {
                    m.ejected_flits += flits;
                } else {
                    m.forwarded_flits += flits;
                    if flits > m.busiest_link_flits {
                        m.busiest_link_flits = flits;
                        if self.nbr[r][p] != u32::MAX {
                            m.busiest_link = Some(LinkRef {
                                from: self.coords[r],
                                to: self.coords[self.nbr[r][p] as usize],
                                dir: Direction::ALL[p],
                            });
                        }
                    }
                    if self.nbr[r][p] != u32::MAX {
                        m.links += 1;
                    }
                }
                m.fifo_high_water = m.fifo_high_water.max(self.fifo_hwm[r][p] as u32);
            }
            m.stall_cycles += self.stall_cycles[r];
        }
        if let Some(sp) = &self.spatial {
            // Window resets displace high-water marks into the spatial
            // merge array; fold them back so the lifetime answer is
            // unchanged by windowing.
            for row in &sp.hwm_merge {
                for &h in row {
                    m.fifo_high_water = m.fifo_high_water.max(h as u32);
                }
            }
        }
        m
    }

    /// Publish this network's aggregate metrics into `reg` under
    /// `prefix.*` (counters for totals, gauges for utilization and
    /// high-water marks, plus the exact latency histogram compressed into
    /// the registry's log2 buckets).
    pub fn publish_metrics(&self, reg: &hic_obs::Registry, prefix: &str) {
        let m = self.metrics();
        reg.counter(&format!("{prefix}.cycles")).add(m.cycles);
        reg.counter(&format!("{prefix}.flits.forwarded"))
            .add(m.forwarded_flits);
        reg.counter(&format!("{prefix}.flits.ejected"))
            .add(m.ejected_flits);
        reg.counter(&format!("{prefix}.stall_cycles"))
            .add(m.stall_cycles);
        reg.counter(&format!("{prefix}.packets.delivered"))
            .add(self.stats.delivered());
        reg.counter(&format!("{prefix}.bytes.delivered"))
            .add(self.stats.bytes());
        reg.gauge(&format!("{prefix}.fifo.high_water"))
            .set(m.fifo_high_water as u64);
        reg.gauge(&format!("{prefix}.link.util_mean_permille"))
            .set((m.mean_link_utilization() * 1000.0).round() as u64);
        reg.gauge(&format!("{prefix}.link.util_max_permille"))
            .set((m.max_link_utilization() * 1000.0).round() as u64);
        if let Some(b) = m.busiest_link {
            reg.gauge(&format!("{prefix}.link.busiest_x"))
                .set(b.from.x as u64);
            reg.gauge(&format!("{prefix}.link.busiest_y"))
                .set(b.from.y as u64);
            reg.gauge(&format!("{prefix}.link.busiest_port"))
                .set(b.dir.index() as u64);
            reg.gauge(&format!("{prefix}.link.busiest_flits"))
                .set(m.busiest_link_flits);
        }
        let lat = reg.histogram(&format!("{prefix}.latency_cycles"));
        for (latency, &n) in self.stats.histogram().iter().enumerate() {
            lat.record_n(latency as u64, n);
        }
    }

    /// Routers currently on the active list (holding flits or pending
    /// injections) — an observability hook for tuning, not part of the
    /// cycle semantics.
    pub fn active_routers(&self) -> usize {
        self.active_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Packets injected but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// True when no traffic remains anywhere. (Flits only exist on behalf
    /// of in-flight packets, so an empty packet table means every inject
    /// queue and FIFO is empty too.)
    pub fn is_drained(&self) -> bool {
        self.inflight.is_empty()
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

    /// The retained per-packet delivery log. Complete under
    /// [`RecordMode::Full`]; under [`RecordMode::Events`] only what has
    /// not been drained yet; always empty under [`RecordMode::Stats`].
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.delivered
    }

    /// Remove and return the packets delivered since the last drain (the
    /// [`RecordMode::Events`] consumption API). Keeps the log's capacity,
    /// so a steady drain cadence allocates nothing.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, DeliveredPacket> {
        self.delivered.drain(..)
    }

    /// Streaming statistics over every delivery since construction,
    /// regardless of record mode.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Start (or restart) a measurement window: from now on, deliveries of
    /// packets injected at or after cycle `injected_from` also accumulate
    /// into [`window_stats`](Self::window_stats). Used by warmup/measure
    /// protocols to exclude cold-start traffic without retaining a log.
    pub fn begin_stats_window(&mut self, injected_from: u64) {
        self.window_from = Some(injected_from);
        self.window = NocStats::default();
    }

    /// Statistics of the current measurement window (all zeros when no
    /// window was begun).
    pub fn window_stats(&self) -> &NocStats {
        &self.window
    }

    /// Mean end-to-end latency of delivered packets, in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.stats.mean_latency()
    }

    /// Maximum end-to-end latency of delivered packets, in cycles.
    pub fn max_latency(&self) -> u64 {
        self.stats.max_latency()
    }

    /// Delivered payload bytes per cycle over the elapsed simulation.
    pub fn throughput(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.stats.bytes() as f64 / self.cycle as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(w: u16, h: u16) -> Network {
        Network::new(NocConfig::paper_default(Mesh::new(w, h)))
    }

    /// An inject queue hands out, and lets a jump read, exactly the flits
    /// `Packet::flitize` makes: on every pop, and at every position after
    /// consuming up to, into and past each packet boundary.
    #[test]
    fn queued_flits_match_flitize() {
        for fp in [4u32, 8, 16] {
            let p = fp as u64;
            let pkts: Vec<Packet> = [0, 1, p - 1, p, p + 1, 256, 1 << 20]
                .iter()
                .enumerate()
                .map(|(i, &bytes)| Packet {
                    id: PacketId(i as u64 + 7),
                    src: Coord::new(0, 0),
                    dst: Coord::new(i as u16 % 3, 1),
                    bytes,
                })
                .collect();
            let expect: Vec<Flit> = pkts.iter().flat_map(|pk| pk.flitize(fp)).collect();
            let queue: VecDeque<Queued> = pkts.iter().map(|pk| Queued::new(pk, fp)).collect();

            let mut popped = queue.clone();
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(
                    queue_pop(&mut popped, fp),
                    *want,
                    "flit payload {fp}, pop {i}"
                );
            }
            assert!(popped.is_empty());

            let total = expect.len() as u64;
            let mut cuts = vec![0, total / 2];
            let mut edge = 0;
            for pk in &pkts {
                edge += pk.flit_count(fp);
                cuts.extend([edge - 1, edge, edge + 1]);
            }
            cuts.retain(|&c| c <= total);
            cuts.sort_unstable();
            cuts.dedup();
            for cut in cuts {
                let mut rest = queue.clone();
                queue_consume(&mut rest, cut);
                let left: u64 = rest.iter().map(|q| q.left as u64).sum();
                assert_eq!(left, total - cut);
                for pos in 0..(total - cut) as usize {
                    assert_eq!(
                        queue_at(&rest, pos, fp),
                        expect[cut as usize + pos],
                        "flit payload {fp}, consumed {cut}, position {pos}"
                    );
                }
            }
        }

        // A 1 MiB message waits as one entry, however much of it is in.
        let mut n = net(2, 2);
        n.send(Coord::new(0, 0), Coord::new(1, 1), 1 << 20);
        assert_eq!(n.inject[0].len(), 1);
        assert_eq!(n.pending[0], 1 << 18);
        for _ in 0..20 {
            n.step();
        }
        assert_eq!(n.inject[0].len(), 1);
        assert!(n.pending[0] < 1 << 18);
    }

    /// A streaming worm is partly injected, so the queue offers a jump
    /// only its tail as a mark: once its path is open, one jump carries
    /// it to its delivery. Single-flit packets queued behind it are
    /// delivered one per jump.
    #[test]
    fn queued_worm_streams_in_one_jump() {
        let mut n = net(4, 4);
        let (src, dst) = (Coord::new(0, 0), Coord::new(3, 2));
        n.send(src, dst, 4096); // 1024 flits
        n.send(src, dst, 0);
        n.send(src, dst, 3);
        let mut calls = 0;
        while !n.is_drained() {
            n.advance(u64::MAX);
            calls += 1;
        }
        assert_eq!(n.delivered().len(), 3);
        assert!(calls < 24, "{calls} advance calls for {} cycles", n.cycle());
    }

    #[test]
    fn single_packet_no_load_latency() {
        let mut n = net(3, 3);
        // 2 hops (East, East) + ejection; 1 flit.
        n.send(Coord::new(0, 0), Coord::new(2, 0), 4);
        n.run_until_drained(100).unwrap();
        let d = n.delivered()[0];
        // Inject + route through 3 routers, eject on the last: h + 1 = 3.
        assert_eq!(d.latency(), 3);
    }

    #[test]
    fn multi_flit_latency_adds_serialization() {
        let mut n = net(3, 3);
        n.send(Coord::new(0, 0), Coord::new(2, 0), 16); // 4 flits
        n.run_until_drained(100).unwrap();
        // Tail trails head by 3 cycles: 3 + 3 = 6.
        assert_eq!(n.delivered()[0].latency(), 6);
    }

    #[test]
    fn local_delivery_works() {
        let mut n = net(2, 2);
        n.send(Coord::new(1, 1), Coord::new(1, 1), 4);
        n.run_until_drained(10).unwrap();
        assert_eq!(n.delivered().len(), 1);
        assert_eq!(n.delivered()[0].latency(), 1); // same-node turnaround
    }

    #[test]
    fn all_packets_delivered_under_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = net(4, 4);
        let mesh = Mesh::new(4, 4);
        let mut sent = 0u64;
        for _ in 0..200 {
            let s = mesh.coord(rng.gen_range(0..mesh.len()));
            let d = mesh.coord(rng.gen_range(0..mesh.len()));
            let bytes = rng.gen_range(0..64);
            n.send(s, d, bytes);
            sent += 1;
            // Interleave some stepping so injection queues drain.
            for _ in 0..rng.gen_range(0..4) {
                n.step();
            }
        }
        n.run_until_drained(100_000).unwrap();
        assert_eq!(n.delivered().len() as u64, sent);
        let payload: u64 = n.delivered().iter().map(|p| p.bytes).sum();
        assert!(payload > 0);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two sources send to the same destination through the same final
        // link; total time must exceed either packet alone.
        let mut solo = net(3, 1);
        solo.send(Coord::new(0, 0), Coord::new(2, 0), 64);
        let solo_cycles = solo.run_until_drained(1000).unwrap();

        let mut n = net(3, 1);
        n.send(Coord::new(0, 0), Coord::new(2, 0), 64);
        n.send(Coord::new(1, 0), Coord::new(2, 0), 64);
        n.run_until_drained(1000).unwrap();
        assert_eq!(n.delivered().len(), 2);
        let last = n.delivered().iter().map(|p| p.delivered).max().unwrap();
        assert!(last > solo_cycles, "{last} vs {solo_cycles}");
    }

    #[test]
    fn drain_timeout_reports_undelivered() {
        let mut n = net(2, 1);
        n.send(Coord::new(0, 0), Coord::new(1, 0), 1 << 20);
        let err = n.run_until_drained(3).unwrap_err();
        assert_eq!(err.undelivered, 1);
    }

    #[test]
    fn parallel_disjoint_flows_do_not_interfere() {
        // Row 0 and row 1 flows never share a link under XY routing, so
        // both finish in the solo time.
        let mut solo = net(4, 2);
        solo.send(Coord::new(0, 0), Coord::new(3, 0), 256);
        let solo_cycles = solo.run_until_drained(10_000).unwrap();

        let mut n = net(4, 2);
        n.send(Coord::new(0, 0), Coord::new(3, 0), 256);
        n.send(Coord::new(0, 1), Coord::new(3, 1), 256);
        let both_cycles = n.run_until_drained(10_000).unwrap();
        assert_eq!(solo_cycles, both_cycles);
    }

    #[test]
    fn throughput_and_latency_stats() {
        let mut n = net(2, 1);
        n.send(Coord::new(0, 0), Coord::new(1, 0), 4);
        n.send(Coord::new(0, 0), Coord::new(1, 0), 4);
        n.run_until_drained(100).unwrap();
        assert!(n.mean_latency() > 0.0);
        assert!(n.max_latency() >= n.mean_latency() as u64);
        assert!(n.throughput() > 0.0);
    }

    #[test]
    fn streaming_stats_match_the_full_log() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut n = net(4, 4);
        let mesh = Mesh::new(4, 4);
        for _ in 0..150 {
            let s = mesh.coord(rng.gen_range(0..mesh.len()));
            let d = mesh.coord(rng.gen_range(0..mesh.len()));
            n.send(s, d, rng.gen_range(0..48));
            for _ in 0..rng.gen_range(0..3) {
                n.step();
            }
        }
        n.run_until_drained(100_000).unwrap();

        let log = n.delivered();
        let count = log.len() as u64;
        let sum: u64 = log.iter().map(|p| p.latency()).sum();
        let max = log.iter().map(|p| p.latency()).max().unwrap();
        let bytes: u64 = log.iter().map(|p| p.bytes).sum();
        let mut sorted: Vec<u64> = log.iter().map(|p| p.latency()).collect();
        sorted.sort_unstable();
        let p99 = sorted[sorted.len().saturating_sub(1).min(sorted.len() * 99 / 100)];

        let s = n.stats();
        assert_eq!(s.delivered(), count);
        assert_eq!(s.latency_sum(), sum);
        assert_eq!(s.max_latency(), max);
        assert_eq!(s.bytes(), bytes);
        assert_eq!(s.p99_latency(), p99);
        assert_eq!(s.histogram().iter().sum::<u64>(), count);
    }

    #[test]
    fn stats_mode_keeps_no_per_packet_log() {
        let mut n = net(3, 3);
        n.set_record_mode(RecordMode::Stats);
        for _ in 0..10 {
            n.send(Coord::new(0, 0), Coord::new(2, 2), 16);
        }
        n.run_until_drained(10_000).unwrap();
        assert!(n.delivered().is_empty());
        assert_eq!(n.stats().delivered(), 10);
        assert!(n.mean_latency() > 0.0);
        assert!(n.throughput() > 0.0);
    }

    #[test]
    fn events_mode_drains_incrementally() {
        let mut n = net(3, 1);
        n.set_record_mode(RecordMode::Events);
        let a = n.send(Coord::new(0, 0), Coord::new(2, 0), 4);
        n.run_until_drained(100).unwrap();
        let first: Vec<_> = n.drain_events().collect();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, a);
        assert!(n.delivered().is_empty());

        let b = n.send(Coord::new(2, 0), Coord::new(0, 0), 4);
        n.run_until_drained(100).unwrap();
        let second: Vec<_> = n.drain_events().collect();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id, b);
        // The streaming stats still cover everything.
        assert_eq!(n.stats().delivered(), 2);
    }

    #[test]
    fn stats_window_filters_by_injection_cycle() {
        let mut n = net(3, 1);
        n.send(Coord::new(0, 0), Coord::new(2, 0), 4); // injected at 0
        n.run_until_drained(100).unwrap();
        let resume = n.cycle();
        n.begin_stats_window(resume);
        n.send(Coord::new(0, 0), Coord::new(2, 0), 8); // injected at `resume`
        n.run_until_drained(100).unwrap();
        assert_eq!(n.stats().delivered(), 2);
        assert_eq!(n.window_stats().delivered(), 1);
        assert_eq!(n.window_stats().bytes(), 8);
    }

    #[test]
    fn active_set_retires_and_reactivates_routers() {
        let mut n = net(4, 1);
        n.send(Coord::new(0, 0), Coord::new(3, 0), 4);
        n.run_until_drained(100).unwrap();
        // Fully drained: the active set must be empty again.
        assert_eq!(n.active_routers(), 0);
        // And a later send must wake the path back up.
        n.send(Coord::new(3, 0), Coord::new(0, 0), 4);
        n.run_until_drained(100).unwrap();
        assert_eq!(n.stats().delivered(), 2);
        assert_eq!(n.active_routers(), 0);
    }

    #[test]
    fn packet_slab_window_slides_past_completed_packets() {
        let mut n = net(2, 1);
        for i in 0..50u64 {
            n.send(Coord::new(0, 0), Coord::new(1, 0), 4);
            n.run_until_drained(100).unwrap();
            // Everything up to id i is complete, so the slab window is
            // empty and re-based past it — no growth with history.
            assert_eq!(n.inflight.base, i + 1);
            assert!(n.inflight.slots.is_empty());
        }
    }

    #[test]
    fn metrics_count_link_traversals_and_ejections() {
        let mut n = net(3, 1);
        // 2 hops East + ejection; 4 flits.
        n.send(Coord::new(0, 0), Coord::new(2, 0), 16);
        n.run_until_drained(100).unwrap();
        let m = n.metrics();
        // Each of the 4 flits crosses 2 links and ejects once.
        assert_eq!(m.forwarded_flits, 8);
        assert_eq!(m.ejected_flits, 4);
        // 3x1 mesh: 2 bidirectional edges = 4 directed links.
        assert_eq!(m.links, 4);
        assert!(m.fifo_high_water >= 1);
        assert!(m.mean_link_utilization() > 0.0);
        assert!(m.max_link_utilization() >= m.mean_link_utilization());
        assert!(m.max_link_utilization() <= 1.0);
    }

    #[test]
    fn contended_port_accrues_stall_cycles() {
        // Two packets race for the same East output of the middle
        // router; the loser waits, which must show up as stalls.
        let mut n = net(3, 1);
        n.send(Coord::new(0, 0), Coord::new(2, 0), 32);
        n.send(Coord::new(1, 0), Coord::new(2, 0), 32);
        n.run_until_drained(200).unwrap();
        assert!(n.metrics().stall_cycles > 0);
    }

    #[test]
    fn idle_network_reports_zero_metrics() {
        let mut n = net(2, 2);
        for _ in 0..10 {
            n.step();
        }
        let m = n.metrics();
        assert_eq!(m.forwarded_flits, 0);
        assert_eq!(m.ejected_flits, 0);
        assert_eq!(m.stall_cycles, 0);
        assert_eq!(m.fifo_high_water, 0);
        assert_eq!(m.mean_link_utilization(), 0.0);
    }

    #[test]
    fn publish_metrics_fills_a_registry() {
        let mut n = net(2, 1);
        n.send(Coord::new(0, 0), Coord::new(1, 0), 8);
        n.run_until_drained(100).unwrap();
        let reg = hic_obs::Registry::new();
        n.publish_metrics(&reg, "noc");
        let s = reg.snapshot();
        assert!(s.counters["noc.flits.forwarded"] > 0);
        assert!(s.counters["noc.packets.delivered"] == 1);
        assert!(s.counters["noc.cycles"] > 0);
        assert!(s.gauges.contains_key("noc.link.util_mean_permille"));
        let lat = &s.histograms["noc.latency_cycles"];
        assert_eq!(lat.count, 1, "one delivered packet, one latency sample");
    }

    #[test]
    fn pulse_publishes_live_gauges_mid_run() {
        let mut n = net(4, 4);
        let reg = hic_obs::Registry::new();
        n.attach_pulse(&reg, "noc", 4);
        for x in 0..4u16 {
            n.send(Coord::new(x, 0), Coord::new(3 - x, 3), 64);
        }
        // Step only part of the run: the live gauges must be populated
        // while traffic is still in flight, not just at the end.
        for _ in 0..8 {
            n.step();
        }
        let s = reg.snapshot();
        assert!(s.gauges["noc.live.flits_per_kcycle"].last > 0);
        assert!(s.gauges["noc.live.inflight_packets"].last > 0);
        assert!(s.gauges["noc.live.active_routers"].last > 0);
        n.run_until_drained(10_000).unwrap();
        // The gauges are windowed: step through one more pulse window so
        // the idle state is published.
        for _ in 0..8 {
            n.step();
        }
        let s = reg.snapshot();
        assert_eq!(s.gauges["noc.live.inflight_packets"].last, 0);
    }

    #[test]
    fn busiest_link_identity_matches_the_flit_count() {
        let mut n = net(3, 1);
        // All traffic funnels east into (2,0): the (1,0)→(2,0) East link
        // carries everything from both sources.
        n.send(Coord::new(0, 0), Coord::new(2, 0), 32);
        n.send(Coord::new(1, 0), Coord::new(2, 0), 32);
        n.run_until_drained(1000).unwrap();
        let m = n.metrics();
        let b = m.busiest_link.expect("traffic crossed links");
        assert_eq!(b.from, Coord::new(1, 0));
        assert_eq!(b.to, Coord::new(2, 0));
        assert_eq!(b.dir, Direction::East);
        let idx = n.cfg.mesh.index(b.from);
        assert_eq!(n.link_flits[idx][b.dir.index()], m.busiest_link_flits);
        assert_eq!(format!("{b}"), "(1,0)->(2,0) East");
    }

    #[test]
    fn link_matrix_sums_match_aggregate_metrics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut n = net(4, 4);
        let mesh = Mesh::new(4, 4);
        for _ in 0..100 {
            let s = mesh.coord(rng.gen_range(0..mesh.len()));
            let d = mesh.coord(rng.gen_range(0..mesh.len()));
            n.send(s, d, rng.gen_range(0..64));
            for _ in 0..rng.gen_range(0..3) {
                n.step();
            }
        }
        n.run_until_drained(100_000).unwrap();
        let m = n.metrics();
        let local = Direction::Local.index();
        let mut forwarded = 0;
        let mut ejected = 0;
        for row in n.link_flit_matrix() {
            for (p, &f) in row.iter().enumerate() {
                if p == local {
                    ejected += f;
                } else {
                    forwarded += f;
                }
            }
        }
        assert_eq!(forwarded, m.forwarded_flits);
        assert_eq!(ejected, m.ejected_flits);
        assert_eq!(n.stall_matrix().iter().sum::<u64>(), m.stall_cycles);
    }

    #[test]
    fn flow_totals_conserve_injected_bytes_and_packets() {
        let mut n = net(3, 3);
        n.enable_spatial(SpatialConfig::default());
        let mut injected = 0u64;
        for (s, d, b) in [
            (Coord::new(0, 0), Coord::new(2, 2), 40u64),
            (Coord::new(0, 0), Coord::new(2, 2), 8),
            (Coord::new(1, 0), Coord::new(0, 2), 16),
            (Coord::new(2, 2), Coord::new(2, 2), 0),
        ] {
            n.send(s, d, b);
            injected += b;
        }
        n.run_until_drained(10_000).unwrap();
        let flows = n.flow_totals().expect("flow accounting on");
        assert_eq!(flows.len(), 3);
        assert_eq!(flows.values().map(|f| f.bytes).sum::<u64>(), injected);
        assert_eq!(flows.values().map(|f| f.packets).sum::<u64>(), 4);
        assert_eq!(flows.values().map(|f| f.delivered).sum::<u64>(), 4);
        let hot = flows[&(Coord::new(0, 0), Coord::new(2, 2))];
        assert_eq!(hot.packets, 2);
        assert_eq!(hot.bytes, 48);
        // 40 bytes = 10 flits, 8 bytes = 2 flits at 4-byte payloads.
        assert_eq!(hot.flits, 12);
        assert!(hot.latency_sum > 0);
    }

    #[test]
    fn spatial_windows_partition_the_cumulative_matrix() {
        let mut n = net(3, 1);
        n.enable_spatial(SpatialConfig::windowed(8));
        n.send(Coord::new(0, 0), Coord::new(2, 0), 64);
        n.run_until_drained(1000).unwrap();
        // Step past the last boundary so the final window closes too.
        let end = n.cycle().next_multiple_of(8);
        while n.cycle() < end {
            n.step();
        }
        let windows = n.spatial_windows();
        assert!(!windows.is_empty());
        let mut summed = [[0u64; PORTS]; 3];
        for w in windows {
            assert_eq!(w.end - w.start, 8);
            for (r, row) in w.link_flits.iter().enumerate() {
                for p in 0..PORTS {
                    summed[r][p] += row[p];
                }
            }
        }
        assert_eq!(&summed[..], n.link_flit_matrix());
        // Window resets displaced the high-water marks; the lifetime
        // answers still come back merged.
        assert!(n.metrics().fifo_high_water >= 1);
        assert!(n.fifo_hwm_matrix().iter().flatten().any(|&h| h > 0));
    }

    #[test]
    fn quiet_windows_are_skipped_and_jumps_match_stepping() {
        // Same schedule, one run stepping through the idle gap, one
        // jumping it: recorded windows must be identical.
        let run = |jump: bool| {
            let mut n = net(3, 1);
            n.enable_spatial(SpatialConfig::windowed(16));
            n.send(Coord::new(0, 0), Coord::new(2, 0), 32);
            n.run_until_drained(1000).unwrap();
            if jump {
                n.advance_idle_to(500).unwrap();
            } else {
                while n.cycle() < 500 {
                    n.step();
                }
            }
            n.send(Coord::new(2, 0), Coord::new(0, 0), 32);
            n.run_until_drained(1000).unwrap();
            let end = n.cycle().next_multiple_of(16);
            if jump {
                n.advance_idle_to(end).unwrap();
            } else {
                while n.cycle() < end {
                    n.step();
                }
            }
            (n.spatial_windows().to_vec(), n.metrics())
        };
        let (stepped, ms) = run(false);
        let (jumped, mj) = run(true);
        assert_eq!(stepped, jumped);
        assert_eq!(ms, mj);
        // The idle gap produced no windows at all.
        assert!(stepped.windows(2).all(|w| w[1].start >= w[0].end));
        assert!(stepped.len() < 500 / 16);
    }

    #[test]
    fn window_eviction_is_counted() {
        let mut n = net(2, 1);
        n.enable_spatial(SpatialConfig {
            window: 4,
            flows: false,
            max_windows: 2,
        });
        for _ in 0..8 {
            n.send(Coord::new(0, 0), Coord::new(1, 0), 16);
            n.run_until_drained(100).unwrap();
        }
        let end = n.cycle().next_multiple_of(4);
        while n.cycle() < end {
            n.step();
        }
        assert_eq!(n.spatial_windows().len(), 2);
        assert!(n.spatial_evicted() > 0);
        assert!(n.flow_totals().is_none(), "flows disabled by config");
    }

    #[test]
    fn spatial_does_not_change_cycle_semantics() {
        let mk = |spatial: bool| {
            let mut n = net(4, 4);
            if spatial {
                n.enable_spatial(SpatialConfig::windowed(32));
            }
            for x in 0..4u16 {
                n.send(Coord::new(x, 0), Coord::new(3 - x, 3), 48);
            }
            n.run_until_drained(10_000).unwrap();
            (n.cycle, n.stats.delivered(), n.metrics())
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn pulse_does_not_change_cycle_semantics() {
        let mk = |pulse: bool| {
            let mut n = net(4, 4);
            if pulse {
                n.attach_pulse(&hic_obs::Registry::new(), "noc", 2);
            }
            for x in 0..4u16 {
                n.send(Coord::new(x, 0), Coord::new(3 - x, 3), 48);
            }
            n.run_until_drained(10_000).unwrap();
            (n.cycle, n.stats.delivered())
        };
        assert_eq!(mk(false), mk(true));
    }
}
