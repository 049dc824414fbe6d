//! # hic-mem — on-chip memory models
//!
//! The on-chip memory of the paper's platform:
//!
//! * [`bram`] — the dual-port block RAMs used as kernel local memories.
//!   BRAM ports are the scarce resource that shapes the shared-local-memory
//!   solution: a Virtex BRAM has exactly two ports, one of which is normally
//!   taken by the host/bus connection, so sharing memories between kernels
//!   needs either the 2×2 crossbar or (when the consumer kernel has no host
//!   traffic) a direct connection; and a local memory touched by more agents
//!   than it has ports needs a multiplexer — exactly the situation of the
//!   duplicated `huff_ac_dec` kernels in the paper's jpeg system.

#![warn(missing_docs)]

pub mod bram;

pub use bram::{MemAgent, PortPlan, PortPlanError};
