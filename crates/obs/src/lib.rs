//! # hic-obs — the observability substrate
//!
//! Every stage of the HIC pipeline (profiler → Algorithm 1 → mapping →
//! co-simulation → benchmarks) publishes its counters, gauges, histograms
//! and stage timings here, so one snapshot describes a whole run. The
//! primitives are deliberately minimal and dependency-free:
//!
//! * [`Counter`] — a monotonic `AtomicU64`; an increment is one relaxed
//!   `fetch_add`, cheap enough to leave on in release builds.
//! * [`Gauge`] — a last-value/high-water pair, for occupancy and
//!   utilization readings.
//! * [`Histogram`] — fixed log2 buckets (65 of them: one per power of two
//!   plus a zero bucket), so recording is a `leading_zeros` and two
//!   `fetch_add`s, with no allocation and no configuration.
//! * [`stage`] — the one scope timer of the pipeline. Its [`Stage`]
//!   guard records on drop, on every exit path: a `"<name>.ns"`
//!   histogram sample always, a complete slice in the flight recorder
//!   when its [`trace`] category is on, and a [`job`] timeline entry
//!   when a job context is armed.
//! * [`Registry`] — a named, thread-safe home for all of the above,
//!   cloneable (shared-handle semantics) with a process-wide default
//!   ([`global`]).
//! * [`Snapshot`] — a point-in-time copy of a registry, renderable as a
//!   human table ([`Snapshot::render_table`]) or as the documented
//!   machine-readable JSON schema ([`Snapshot::to_json`], schema id
//!   `hic-obs/v1` — see the [`snapshot`] module docs).
//!
//! Hot loops (the NoC stepper, the cycle bus) do not touch the registry
//! per event: they keep plain local counters and publish aggregates once
//! per run. The registry is for cold-path accounting (design stages,
//! profiler totals, co-sim run metrics) and for the final snapshot.
//!
//! For *event-level* observation — who talked to whom and when — see the
//! [`trace`] module: a bounded flight recorder of typed events with a
//! Chrome trace-event/Perfetto exporter (schema `hic-trace/v1`).
//!
//! For *continuous* observation of a long-running process, the
//! [`timeseries`] module adds a background [`Sampler`] that snapshots a
//! registry into fixed-capacity ring-buffer [`Series`] (2:1 downsampling
//! on overflow, sliding-window rate queries), and the [`expo`] module
//! serves the registry as Prometheus text format from a zero-dependency
//! [`MetricsServer`] — the pieces behind `hic top`, `hic batch
//! --serve-metrics` and `hic serve --metrics-port`.

#![warn(missing_docs)]

pub mod expo;
pub mod job;
pub mod log;
mod metrics;
mod registry;
mod snapshot;
mod span;
pub mod timeseries;
pub mod trace;

/// Build provenance captured at compile time (see `build.rs`): what
/// `hic_build_info`, `/statusz` and every `hic-log/v1` header report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// Crate/workspace version (`CARGO_PKG_VERSION`).
    pub version: &'static str,
    /// Short git commit sha, or `"unknown"` outside a checkout.
    pub git_sha: &'static str,
    /// Cargo build profile (`debug`/`release`).
    pub profile: &'static str,
}

/// The build provenance of this binary.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        git_sha: env!("HIC_GIT_SHA"),
        profile: env!("HIC_BUILD_PROFILE"),
    }
}

pub use expo::{
    render_prometheus, render_prometheus_full, validate_exposition, LabeledRow, LabeledStore,
    MetricsServer, StatusSource,
};
pub use metrics::{bucket_bounds, bucket_of, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{BucketValue, GaugeValue, HistogramValue, Snapshot, SCHEMA};
pub use span::{stage, Stage};
pub use timeseries::{Point, Sampler, Series, SeriesStore};
