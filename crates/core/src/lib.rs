//! # hic-core — automated hybrid interconnect design
//!
//! The paper's contribution, end to end:
//!
//! * [`classify`] — the {R1,R2,R3}×{S1,S2,S3} communication-topology
//!   classification of kernels (Section IV-B), extended with the degenerate
//!   classes that appear after shared-memory extraction.
//! * [`mapping`] — the adaptive mapping function of Table I
//!   (`Communication → Interconnect`), its feasibility rule, local-memory
//!   port planning and per-kernel glue costs.
//! * [`model`] — the analytic performance model: Eq. 2 and the Δc / Δn /
//!   Δp1 / Δp2 / Δdp terms of Section IV-A.
//! * [`mod@design`] — Algorithm 1 (duplication → shared-memory pairing →
//!   adaptive NoC mapping → parallel transforms) plus the baseline and
//!   NoC-only comparison variants; produces an [`InterconnectPlan`].
//! * [`estimate`] — Table IV-style whole-system LUT/register estimation.
//! * [`perf`] — execution-time estimation composing the Δ terms, with
//!   speed-up accessors matching the paper's Table III and Fig. 4/7.
//! * [`dse`] — design-space exploration over the 2⁴ mechanism lattice with
//!   Pareto-front extraction (time × resources), evaluated in parallel.
//! * [`artifact`] — JSON-round-trippable forms of stage outputs for the
//!   `hic-pipeline` artifact store.
//! * [`stablehash`] — process-independent content digests that key the
//!   artifact store.

#![warn(missing_docs)]

pub mod artifact;
pub mod classify;
pub mod design;
pub mod dse;
pub mod estimate;
pub mod mapping;
pub mod model;
pub mod perf;
pub mod report;
pub mod stablehash;
pub mod validate;

pub use artifact::{NocPlanArtifact, PlanArtifact};
pub use classify::{CommClass, RecvClass, SendClass};
pub use design::{
    design, design_custom, DesignConfig, DesignError, DesignKnobs, InterconnectPlan,
    KernelPlanEntry, NocPlan, ParallelTransform, Variant,
};
pub use dse::{explore, explore_seq, knobs_at, lattice, pareto_front, point_of, DsePoint};
pub use estimate::{InterconnectResources, SystemResources};
pub use mapping::{adaptive_map, mem_port_plan, Attach, KernelAttach, MemAttach};
pub use perf::PerfEstimate;
pub use stablehash::{stable_hash_bytes, stable_hash_json, StableHash, StableHasher};
pub use validate::PlanViolation;
