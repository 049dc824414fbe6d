//! # hic-workload — synthetic workloads + trace replay for the HIC pipeline
//!
//! The paper evaluates interconnect synthesis on four applications;
//! every stage downstream of profiling is therefore exercised on a
//! four-point workload base. This crate widens that base with two
//! profiling front-ends that feed the existing profile→design→cosim
//! pipeline unchanged:
//!
//! * [`generator`] — a seeded [`GenSpec`] deterministically produces a
//!   random-but-controlled kernel DAG (fan-out, hotspot skew,
//!   compute/comm ratio, host-I/O fraction, edge byte/UMA
//!   distributions) as a valid [`hic_fabric::AppSpec`] plus its
//!   function-level [`hic_profiling::CommGraph`]. Same spec ⇒
//!   byte-identical output, across runs and worker counts.
//! * [`tracefmt`]/[`replay`] — a documented line-delimited trace format
//!   (`func`/`enter`/`exit`/`write`/`read`) replayed through the real
//!   [`hic_profiling::Profiler`], so replayed traces share the QUAD
//!   attribution semantics (and its code) with instrumented apps.
//!
//! The two are one path internally: generation synthesizes a trace and
//! replays it, so "generate" and "ingest a trace" cannot drift apart,
//! and emitting the trace of a generated workload is free.
//!
//! App strings `gen:<spec>` and `trace:<path>` are resolved to these
//! front-ends by `hic-pipeline`'s source layer; this crate is
//! deliberately below the pipeline (no store, no CLI) so it can be
//! exercised hermetically.

#![warn(missing_docs)]

pub mod generator;
pub mod genspec;
pub mod replay;
pub mod tracefmt;

pub use generator::{generate, synthesize_trace, Generated};
pub use genspec::{GenSpec, GenSpecError};
pub use replay::replay;
pub use tracefmt::{Trace, TraceError, TraceEvent, MAX_ACCESS_BYTES};

use hic_fabric::AppSpec;
use hic_profiling::CommGraph;

/// A profiled workload, however it was obtained: the measured
/// application spec and the function-level communication graph behind
/// it. This is the same pair the built-in apps produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The measured application.
    pub app: AppSpec,
    /// The function-level communication graph it was derived from.
    pub graph: CommGraph,
}

impl Workload {
    /// A short human-readable summary (kernel/edge counts, traffic).
    pub fn summary(&self) -> String {
        let k2k: u64 = self.app.k2k_edges().map(|e| e.bytes).sum();
        let total: u64 = self.app.edges.iter().map(|e| e.bytes).sum();
        format!(
            "app {}: {} kernels, {} kernel-level edges ({} function-level), {} B total traffic ({} B kernel-to-kernel), host {} cycles",
            self.app.name,
            self.app.n_kernels(),
            self.app.edges.len(),
            self.graph.edges.len(),
            total,
            k2k,
            self.app.host_cycles,
        )
    }
}
