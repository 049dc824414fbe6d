//! # HIC — Hybrid Interconnect Compiler
//!
//! Umbrella crate re-exporting the whole HIC stack. See the README for a
//! guided tour; the sub-crates are:
//!
//! * [`fabric`] — substrate models (time, resources, kernels, applications)
//! * [`mem`] — BRAM memory models
//! * [`profiling`] — QUAD-like data-communication profiler
//! * [`bus`] — cycle-level shared system bus
//! * [`noc`] — flit-level 2D-mesh NoC with weighted-round-robin routers
//! * [`xbar`] — crossbar and shared-local-memory models
//! * [`core`] — the paper's contribution: Algorithm 1, the adaptive mapping
//!   function and the analytic performance model
//! * [`sim`] — full-system discrete-event simulator, flit-level
//!   co-simulation and energy model
//! * [`apps`] — the four experimental applications
//! * [`pipeline`] — content-addressed artifact store (`hic-store/v1`)
//!   and the parallel batch compilation service
//!
//! The `hic-cli` crate (binary `hic`) and the `hic-bench` crate (binary
//! `repro`, Criterion benches) sit next to this facade; see the README.

pub use hic_apps as apps;
pub use hic_bus as bus;
pub use hic_core as core;
pub use hic_fabric as fabric;
pub use hic_mem as mem;
pub use hic_noc as noc;
pub use hic_pipeline as pipeline;
pub use hic_profiling as profiling;
pub use hic_sim as sim;
pub use hic_xbar as xbar;
