//! # hic-sim — full-system simulation and energy estimation
//!
//! Executes a synthesized [`hic_core::InterconnectPlan`] end to end:
//!
//! * [`system`] — transfer-level event-driven execution in software,
//!   baseline, hybrid and NoC-only modes, producing makespans, per-kernel
//!   timings and the communication/computation busy-time split that Fig. 4
//!   reports.
//! * [`energy`] — the affine power model and the normalized-energy metric
//!   of Fig. 9.
//! * [`cosim`] — flit-level co-simulation: kernel traffic runs through the
//!   real wormhole mesh instead of the closed-form residual, quantifying
//!   when the paper's Δn full-hiding assumption actually holds.
//! * [`heatmap`] — the `hic-heatmap/v1` spatial-observability artifact
//!   assembled from co-simulation: per-link utilization heatmaps,
//!   kernel-pair flow attribution, and a ranked bottleneck report.

#![warn(missing_docs)]

pub mod cosim;
pub mod energy;
pub mod heatmap;
pub mod system;

pub use cosim::{cosimulate, cosimulate_with, heatmap_window, set_heatmap_window, CosimResult};
pub use energy::PowerModel;
pub use heatmap::{
    publish_series, render_ansi, render_dot, render_summary, Bottleneck, FlowHeat, FlowShare,
    HeatmapReport, LinkHeat, NodeLabel, HEATMAP_SCHEMA, LINK_UTIL_SERIES,
};
pub use hic_noc::EngineKind;
pub use system::{simulate, simulate_runs, simulate_software, KernelTiming, RunResult, RunsResult};
