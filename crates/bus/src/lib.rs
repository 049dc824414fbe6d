//! # hic-bus — cycle-level shared system bus
//!
//! The communication infrastructure of both the paper's baseline and
//! proposed systems is a shared bus (Xilinx PLB in the prototype): a single
//! transaction at a time, granted by an arbiter, moving data in bursts of
//! fixed-width beats.
//!
//! Two views are provided, and cross-validated in the integration tests:
//!
//! * an **analytic** view ([`config::BusConfig::theta_ps_per_byte`]): the
//!   paper's `θ`, the average time to move one byte, which drives the
//!   closed-form model of Eq. (2);
//! * a **cycle-level** view ([`cycle::CycleBus`]): non-preemptive
//!   transaction scheduling with round-robin arbitration, burst
//!   segmentation and per-master wait accounting, which the full-system
//!   simulator uses to capture contention the analytic view ignores.

#![warn(missing_docs)]

pub mod arbiter;
pub mod config;
pub mod cycle;

pub use arbiter::{Arbiter, FixedPriority, RoundRobin};
pub use config::BusConfig;
pub use cycle::{BusMetrics, BusTrace, CycleBus, Grant, Request};
