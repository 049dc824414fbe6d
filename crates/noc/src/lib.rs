//! # hic-noc — flit-level 2D-mesh network-on-chip
//!
//! The NoC half of the paper's hybrid interconnect: a wormhole-switched 2D
//! mesh with XY routing and weighted-round-robin output arbitration,
//! following the scalable QoS router of Heisswolf et al. (ISPAW 2012) that
//! the paper adapts into its system.
//!
//! * [`topology`] — mesh coordinates and the XY route ([`Mesh::route`]),
//!   the one definition of a path that every other module reads.
//! * [`flit`] — packets and their flit serialization.
//! * [`router`] — the five-port input-buffered wormhole router and its WRR
//!   arbiter.
//! * [`network`] — the cycle-stepped network: inject/decide/apply phases,
//!   delivery records, latency and throughput statistics. Implemented as a
//!   zero-allocation fast path (active-router set, slab packet tracking,
//!   streaming statistics) proven cycle-exact against [`reference`].
//! * [`engine`] — the hybrid event-driven engine: an injection calendar
//!   with next-event skip-ahead over quiescent regions. Cycle-exact with
//!   [`network`] and [`reference`].
//! * [`reference`] — the original straightforward stepper, kept as the
//!   executable specification the fast path is property-tested against.
//! * [`adapter`] — kernel and local-memory network adapters (Table II
//!   costs) and message segmentation.
//! * [`placement`] — traffic-weighted node placement (exhaustive for the
//!   paper-scale instances, greedy descent beyond).
//! * [`latency`] — the closed-form no-load latency model used by the
//!   full-system simulator, validated against the flit simulator.
//! * [`traffic`] — the one synthetic traffic generator: Bernoulli
//!   injection under a uniform, transpose, complement, hotspot or
//!   neighbor pattern with an optional on/off burst window, the functions
//!   that play a schedule into any stepper or the hybrid engine, and the
//!   load–latency point.

#![warn(missing_docs)]

pub mod adapter;
pub mod engine;
pub mod flit;
pub mod latency;
pub mod network;
pub mod placement;
pub mod reference;
pub mod router;
pub mod topology;
pub mod traffic;

pub use adapter::{AdapterKind, AdapterSpec};
pub use engine::{EngineKind, HybridConfig, HybridNetwork, SkipStats};
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use latency::LatencyModel;
pub use network::{
    DeliveredPacket, DrainTimeout, FlowTotals, IdleJumpError, NetMetrics, Network, NocConfig,
    NocStats, RecordMode, SpatialConfig, SpatialWindow,
};
pub use placement::{
    place, place_exhaustive, place_greedy, place_naive, NocNode, Placement, Traffic,
};
pub use reference::ReferenceNetwork;
pub use router::{Router, WrrArbiter, PORTS};
pub use topology::{Coord, Direction, LinkRef, Mesh};
pub use traffic::{
    drive_schedule, load_point, schedule, schedule_hybrid, Burst, LoadPoint, Pattern, Stepper,
};
