//! Algorithm 1 — the automated custom-interconnect design.
//!
//! ```text
//! Input:  application (profiled: kernels + communication edges)
//! Output: the most optimized interconnect
//! 1  L_hw ← most computationally intensive HW-suitable functions
//! 2  for each HW in L_hw:
//! 3      if Δdp > 0 and resources available: duplicate HW
//! 7  G ← quantitative data communication profiling
//! 8  for each [HW_i → HW_j : D_ij] in G:
//! 9      if D_i(out)^K = D_j(in)^K = D_ij: share local memories; remove HW_i
//! 14 map remaining HW to the NoC with the adaptive mapping function
//! 15 check the parallel solution (Cases 1 & 2) for all HW
//! ```
//!
//! Step 1 has already happened when an [`AppSpec`] exists (the profiler's
//! traffic ranking and the `KernelSpec` table *are* `L_hw`); this module
//! implements steps 2–15 and the two comparison variants the paper
//! evaluates against (baseline bus-only, NoC-only).

use crate::classify::CommClass;
use crate::mapping::{adaptive_map, mem_port_plan, Attach, KernelAttach, MemAttach};
use crate::model;
use hic_bus::BusConfig;
use hic_fabric::kernel::DataVolumes;
use hic_fabric::resource::{ComponentKind, Resources};
use hic_fabric::time::Time;
use hic_fabric::{AppSpec, CommEdge, Endpoint, KernelId, KernelSpec, MemoryId};
use hic_mem::bram::PortPlan;
use hic_noc::{place, NocConfig, NocNode, Placement, Traffic};
use hic_obs::trace::Category;
use hic_xbar::{SharedMemPair, SharingMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which system is being synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// The conventional bus-based accelerator system (Section III-A).
    Baseline,
    /// The paper's contribution: shared memory + NoC + parallel transforms
    /// under the adaptive mapping.
    Hybrid,
    /// The comparison system of Table IV: parallel transforms applied, all
    /// kernels and local memories on the NoC, no shared memory, no
    /// adaptive mapping.
    NocOnly,
}

impl Variant {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Hybrid => "hybrid",
            Variant::NocOnly => "noc-only",
        }
    }
}

/// Which mechanisms a design run may use. [`Variant::Hybrid`] enables
/// everything; [`crate::dse`] explores the full lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignKnobs {
    /// Lines 2–6: duplicate qualifying kernels.
    pub duplication: bool,
    /// Lines 8–13: shared-local-memory pairing.
    pub shared_memory: bool,
    /// Line 14: a NoC for the remaining kernel-to-kernel traffic. When
    /// disabled, uncovered kernel traffic falls back to the bus (two
    /// crossings per edge, as in the baseline).
    pub noc: bool,
    /// Line 15: the parallel transforms (Cases 1 & 2).
    pub parallel: bool,
    /// Use the Table I adaptive mapping; when false (and `noc` is on),
    /// every kernel and memory is blanket-attached `{K2,M3}` — the paper's
    /// NoC-only comparison system.
    pub adaptive_mapping: bool,
}

impl DesignKnobs {
    /// Everything on — Algorithm 1.
    pub const ALL: DesignKnobs = DesignKnobs {
        duplication: true,
        shared_memory: true,
        noc: true,
        parallel: true,
        adaptive_mapping: true,
    };

    /// Everything off — the baseline system.
    pub const NONE: DesignKnobs = DesignKnobs {
        duplication: false,
        shared_memory: false,
        noc: false,
        parallel: false,
        adaptive_mapping: true,
    };
}

impl Variant {
    /// The knob setting this variant corresponds to.
    pub fn knobs(self) -> DesignKnobs {
        match self {
            Variant::Baseline => DesignKnobs::NONE,
            Variant::Hybrid => DesignKnobs::ALL,
            Variant::NocOnly => DesignKnobs {
                shared_memory: false,
                adaptive_mapping: false,
                ..DesignKnobs::ALL
            },
        }
    }
}

/// Parameters of the design process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignConfig {
    /// The system bus (provides θ).
    pub bus: BusConfig,
    /// NoC flit payload in bytes.
    pub flit_payload: u32,
    /// NoC router input-buffer depth in flits.
    pub noc_buffer_flits: usize,
    /// FPGA resource budget (the xc5vfx130t has 81 920 LUTs/registers).
    pub resource_budget: Resources,
    /// Overhead `O` of splitting a duplicated kernel's input, in kernel
    /// cycles per instance.
    pub dup_overhead_cycles: u64,
    /// Overhead `O` of streaming segmentation (Cases 1 & 2), in kernel
    /// cycles.
    pub stream_overhead_cycles: u64,
    /// Seed for the placement optimizer's restarts.
    pub seed: u64,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            bus: BusConfig::plb_100mhz(),
            flit_payload: 4,
            noc_buffer_flits: 4,
            resource_budget: Resources::new(81_920, 81_920),
            dup_overhead_cycles: 1_000,
            stream_overhead_cycles: 1_000,
            seed: 42,
        }
    }
}

impl DesignConfig {
    /// θ in picoseconds per byte.
    pub fn theta(&self) -> f64 {
        self.bus.theta_ps_per_byte()
    }

    /// Streaming overhead as wall time (kernel clock assumed 100 MHz-class;
    /// the app's own clock is applied where known).
    pub fn stream_overhead(&self, app: &AppSpec) -> Time {
        app.kernel_clock.cycles(self.stream_overhead_cycles)
    }
}

/// The parallel-processing transforms of Section IV-A3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelTransform {
    /// Case 1: pipeline a kernel's host transfers against its computation.
    HostPipeline {
        /// The streamable kernel.
        kernel: KernelId,
        /// The estimated saving Δp1.
        saving: Time,
    },
    /// Case 2: stream a producer's output into a consumer that starts
    /// before the producer finishes.
    KernelPipeline {
        /// Producing kernel.
        producer: KernelId,
        /// Consuming kernel.
        consumer: KernelId,
        /// The estimated saving Δp2.
        saving: Time,
    },
}

impl ParallelTransform {
    /// The transform's estimated saving.
    pub fn saving(&self) -> Time {
        match *self {
            ParallelTransform::HostPipeline { saving, .. } => saving,
            ParallelTransform::KernelPipeline { saving, .. } => saving,
        }
    }
}

/// Per-kernel design outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelPlanEntry {
    /// Residual communication class (after shared-memory extraction).
    pub class: CommClass,
    /// Table I attachment.
    pub attach: Attach,
    /// Port allocation of the kernel's local memory.
    pub port_plan: PortPlan,
    /// The kernel's memory sits behind a crossbar-mode shared pair.
    pub behind_crossbar: bool,
    /// The kernel's memory hosts a directly-wired peer (direct-mode
    /// shared-pair consumer).
    pub direct_peer: bool,
}

/// The NoC part of a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocPlan {
    /// NoC parameters.
    pub config: NocConfig,
    /// Where each attached node sits on the mesh.
    pub placement: Placement,
    /// Kernels attached through a kernel NA (`K2`).
    pub kernel_nodes: Vec<KernelId>,
    /// Kernels whose local memory is attached through a memory NA
    /// (`M2`/`M3`).
    pub mem_nodes: Vec<KernelId>,
}

impl NocPlan {
    /// Number of routers (one per attached node, as in Section IV-A2).
    pub fn routers(&self) -> usize {
        self.kernel_nodes.len() + self.mem_nodes.len()
    }
}

/// A complete synthesized interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectPlan {
    /// Which system this is.
    pub variant: Variant,
    /// The application the plan is for, with duplication materialized
    /// (duplicated kernels appear as two half-work instances).
    pub app: AppSpec,
    /// Duplications performed: (original kernel, clone kernel).
    pub duplicated: Vec<(KernelId, KernelId)>,
    /// Shared-local-memory pairs.
    pub sm_pairs: Vec<SharedMemPair>,
    /// The NoC, when any node needs one.
    pub noc: Option<NocPlan>,
    /// Per-kernel classification, attachment and port plan.
    pub kernels: BTreeMap<KernelId, KernelPlanEntry>,
    /// Parallel transforms applied.
    pub parallel: Vec<ParallelTransform>,
    /// Kernel-to-kernel edges served by neither a shared pair nor the NoC;
    /// their data crosses the bus twice (kernel→host→kernel), exactly like
    /// the baseline. Empty for the standard variants.
    pub bus_fallback: Vec<CommEdge>,
    /// The mechanism knobs the plan was built with.
    pub knobs: DesignKnobs,
    /// The configuration the plan was built under.
    pub config: DesignConfig,
}

/// Errors from [`design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Even the baseline (kernels + bus) exceeds the resource budget.
    OverBudget {
        /// What the system needs.
        required: Resources,
        /// What the FPGA offers.
        budget: Resources,
    },
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::OverBudget { required, budget } => {
                write!(f, "system needs {required} but budget is {budget}")
            }
        }
    }
}

impl std::error::Error for DesignError {}

/// Run the design for a given variant. [`Variant::Hybrid`] is Algorithm 1.
pub fn design(
    app: &AppSpec,
    cfg: &DesignConfig,
    variant: Variant,
) -> Result<InterconnectPlan, DesignError> {
    design_with(app, cfg, variant, variant.knobs())
}

/// Run the design with an explicit mechanism selection (for design-space
/// exploration and ablations). The resulting plan is labeled
/// [`Variant::Hybrid`] unless every mechanism is off.
pub fn design_custom(
    app: &AppSpec,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
) -> Result<InterconnectPlan, DesignError> {
    if knobs == DesignKnobs::NONE {
        return design_with(app, cfg, Variant::Baseline, knobs);
    }
    design_with(app, cfg, Variant::Hybrid, knobs)
}

fn design_with(
    app: &AppSpec,
    cfg: &DesignConfig,
    variant: Variant,
    knobs: DesignKnobs,
) -> Result<InterconnectPlan, DesignError> {
    app.validate().expect("invalid AppSpec");
    let reg = hic_obs::global();
    reg.counter("design.runs").inc();
    // The whole run, with Algorithm 1's steps as nested stages below.
    let _run = hic_obs::stage(Category::Design, "design.run", &app.name);
    let base_kernels: Resources = app.kernels.iter().map(|k| k.resources).sum();
    let base_need = base_kernels + ComponentKind::Bus.cost();
    if !base_need.fits_in(cfg.resource_budget) {
        return Err(DesignError::OverBudget {
            required: base_need,
            budget: cfg.resource_budget,
        });
    }

    if variant == Variant::Baseline {
        return Ok(baseline_plan(app, cfg));
    }

    // --- Lines 2–6: duplication of qualifying kernels. ---
    let stage = hic_obs::stage(Category::Design, "design.duplication", "");
    let mut app = app.clone();
    let mut duplicated = Vec::new();
    let mut used = base_need;
    // Consider kernels hottest-first, as the paper picks "the most
    // computationally intensive function" for duplication.
    let mut by_heat: Vec<KernelId> = app.kernel_ids().collect();
    by_heat.sort_by_key(|&k| std::cmp::Reverse(app.kernel(k).compute_cycles));
    for k in by_heat {
        if !knobs.duplication {
            break;
        }
        let spec = app.kernel(k).clone();
        let tau = app.kernel_clock.cycles(spec.compute_cycles);
        let o = app.kernel_clock.cycles(cfg.dup_overhead_cycles);
        if !spec.duplicable || model::delta_dp(tau, o) == Time::ZERO {
            continue;
        }
        if !(used + spec.resources).fits_in(cfg.resource_budget) {
            continue;
        }
        used += spec.resources;
        let clone = elaborate_duplication(&mut app, k, cfg.dup_overhead_cycles);
        duplicated.push((k, clone));
    }

    // --- Lines 8–13: shared-local-memory pairing. ---
    drop(stage);
    let stage = hic_obs::stage(Category::Design, "design.shared_memory", "");
    let mut sm_pairs: Vec<SharedMemPair> = Vec::new();
    if knobs.shared_memory {
        let mut edges: Vec<CommEdge> = app.k2k_edges().copied().collect();
        edges.sort_by_key(|e| std::cmp::Reverse(e.bytes));
        let mut taken: BTreeSet<KernelId> = BTreeSet::new();
        for e in edges {
            let (Some(i), Some(j)) = (e.src.kernel(), e.dst.kernel()) else {
                continue;
            };
            if taken.contains(&i) || taken.contains(&j) {
                continue;
            }
            let vi = app.volumes(i);
            let vj = app.volumes(j);
            if let Some(pair) = SharedMemPair::qualify(i, j, e.bytes, &vi, &vj) {
                taken.insert(i);
                taken.insert(j);
                sm_pairs.push(pair);
            }
        }
    }

    // --- Edges served by neither mechanism fall back to the bus. ---
    drop(stage);
    let stage = hic_obs::stage(Category::Design, "design.mapping", "");
    let sm_covered: BTreeSet<(KernelId, KernelId)> =
        sm_pairs.iter().map(|p| (p.producer, p.consumer)).collect();
    let bus_fallback: Vec<CommEdge> = if knobs.noc {
        Vec::new()
    } else {
        app.k2k_edges()
            .filter(|e| {
                let (Some(i), Some(j)) = (e.src.kernel(), e.dst.kernel()) else {
                    return false;
                };
                !sm_covered.contains(&(i, j))
            })
            .copied()
            .collect()
    };

    // --- Residual volumes after SM extraction; bus-fallback kernel
    //     traffic reclassifies as host traffic (it crosses the bus). ---
    let residual: BTreeMap<KernelId, DataVolumes> = app
        .kernel_ids()
        .map(|k| {
            let mut v = app.volumes(k);
            for p in &sm_pairs {
                if p.producer == k {
                    v.kernel_out -= p.bytes;
                }
                if p.consumer == k {
                    v.kernel_in -= p.bytes;
                }
            }
            for e in &bus_fallback {
                if e.src == Endpoint::Kernel(k) {
                    v.kernel_out -= e.bytes;
                    v.host_out += e.bytes;
                }
                if e.dst == Endpoint::Kernel(k) {
                    v.kernel_in -= e.bytes;
                    v.host_in += e.bytes;
                }
            }
            (k, v)
        })
        .collect();

    // --- Line 14: adaptive mapping (or the NoC-only blanket mapping). ---
    let mut kernels = BTreeMap::new();
    for k in app.kernel_ids() {
        let class = CommClass::of(&residual[&k]);
        let attach = if knobs.adaptive_mapping || !knobs.noc {
            adaptive_map(class)
        } else {
            // Blanket mapping: everything on the NoC and the bus — the
            // paper's NoC-only comparison system.
            Attach {
                kernel: KernelAttach::K2,
                mem: MemAttach::M3,
            }
        };
        let behind_crossbar = sm_pairs
            .iter()
            .any(|p| p.mode == SharingMode::Crossbar && (p.producer == k || p.consumer == k));
        let direct_peer = sm_pairs
            .iter()
            .any(|p| p.mode == SharingMode::Direct && p.consumer == k);
        // {K1,M2} is feasible when the kernel's output leaves through a
        // shared local memory — or when it produces no output at all, in
        // which case there is no result to make reachable.
        let sm_output = sm_pairs.iter().any(|p| p.producer == k) || app.volumes(k).total_out() == 0;
        attach
            .validate(sm_output)
            .expect("adaptive mapping produced infeasible attachment");
        let port_plan = mem_port_plan(attach, behind_crossbar, direct_peer, 2);
        kernels.insert(
            k,
            KernelPlanEntry {
                class,
                attach,
                port_plan,
                behind_crossbar,
                direct_peer,
            },
        );
    }

    // --- NoC plan and placement. ---
    drop(stage);
    let stage = hic_obs::stage(Category::Design, "design.placement", "");
    let kernel_nodes: Vec<KernelId> = app
        .kernel_ids()
        .filter(|k| kernels[k].attach.kernel == KernelAttach::K2)
        .collect();
    let mem_nodes: Vec<KernelId> = app
        .kernel_ids()
        .filter(|k| kernels[k].attach.mem.on_noc())
        .collect();
    let noc = if !knobs.noc || (kernel_nodes.is_empty() && mem_nodes.is_empty()) {
        None
    } else {
        let nodes: Vec<NocNode> = kernel_nodes
            .iter()
            .map(|&k| NocNode::Kernel(k))
            .chain(mem_nodes.iter().map(|&k| NocNode::Memory(MemoryId(k.0))))
            .collect();
        // NoC traffic: producer kernel → consumer's local memory, for every
        // k2k edge not absorbed by a shared pair. (The NoC-only variant has
        // no shared pairs, so its whole kernel traffic lands here.)
        let traffic: Traffic = app
            .k2k_edges()
            .filter_map(|e| {
                let (i, j) = (e.src.kernel()?, e.dst.kernel()?);
                if sm_covered.contains(&(i, j)) {
                    return None;
                }
                Some((NocNode::Kernel(i), NocNode::Memory(MemoryId(j.0)), e.bytes))
            })
            .filter(|(a, b, _)| nodes.contains(a) && nodes.contains(b))
            .collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let placement = place(&nodes, &traffic, &mut rng);
        Some(NocPlan {
            config: NocConfig {
                mesh: placement.mesh,
                clock: app.kernel_clock,
                flit_payload: cfg.flit_payload,
                buffer_flits: cfg.noc_buffer_flits,
            },
            placement,
            kernel_nodes,
            mem_nodes,
        })
    };

    // --- Line 15: parallel solution, Cases 1 & 2. ---
    drop(stage);
    let stage = hic_obs::stage(Category::Design, "design.parallel", "");
    let theta = cfg.theta();
    let o = cfg.stream_overhead(&app);
    let mut parallel = Vec::new();
    let parallel_kernels: Vec<KernelId> = if knobs.parallel {
        app.kernel_ids().collect()
    } else {
        Vec::new()
    };
    for k in parallel_kernels {
        let spec = app.kernel(k);
        if !spec.streamable {
            continue;
        }
        let v = app.volumes(k);
        let tau = model::tau(&app, k);
        let saving = model::delta_p1(v.host_in, v.host_out, tau, theta, o);
        if saving > Time::ZERO {
            parallel.push(ParallelTransform::HostPipeline { kernel: k, saving });
        }
    }
    for e in app.k2k_edges() {
        if !knobs.parallel {
            break;
        }
        let (Some(i), Some(j)) = (e.src.kernel(), e.dst.kernel()) else {
            continue;
        };
        if !(app.kernel(i).streamable && app.kernel(j).streamable) {
            continue;
        }
        let saving = model::delta_p2(model::tau(&app, i), model::tau(&app, j), o);
        if saving > Time::ZERO {
            parallel.push(ParallelTransform::KernelPipeline {
                producer: i,
                consumer: j,
                saving,
            });
        }
    }

    drop(stage);

    // Mechanism decisions the run actually took, for `hic report`.
    reg.counter("design.duplications")
        .add(duplicated.len() as u64);
    reg.counter("design.sm_pairs").add(sm_pairs.len() as u64);
    reg.counter("design.parallel_transforms")
        .add(parallel.len() as u64);
    reg.counter("design.bus_fallback_edges")
        .add(bus_fallback.len() as u64);
    if let Some(n) = &noc {
        reg.counter("design.noc_routers").add(n.routers() as u64);
    }

    Ok(InterconnectPlan {
        variant,
        app,
        duplicated,
        sm_pairs,
        noc,
        kernels,
        parallel,
        bus_fallback,
        knobs,
        config: *cfg,
    })
}

/// The baseline system: every kernel `{K1, M1}`, no custom interconnect.
fn baseline_plan(app: &AppSpec, cfg: &DesignConfig) -> InterconnectPlan {
    let kernels = app
        .kernel_ids()
        .map(|k| {
            let class = CommClass::of(&app.volumes(k));
            let attach = Attach {
                kernel: KernelAttach::K1,
                mem: MemAttach::M1,
            };
            let port_plan = mem_port_plan(attach, false, false, 2);
            (
                k,
                KernelPlanEntry {
                    class,
                    attach,
                    port_plan,
                    behind_crossbar: false,
                    direct_peer: false,
                },
            )
        })
        .collect();
    InterconnectPlan {
        variant: Variant::Baseline,
        app: app.clone(),
        duplicated: Vec::new(),
        sm_pairs: Vec::new(),
        noc: None,
        kernels,
        parallel: Vec::new(),
        bus_fallback: Vec::new(),
        knobs: DesignKnobs::NONE,
        config: *cfg,
    }
}

/// Materialize one duplication: split kernel `k`'s work and traffic across
/// the original and a new clone, each paying the split overhead.
///
/// Returns the clone's id.
fn elaborate_duplication(app: &mut AppSpec, k: KernelId, overhead_cycles: u64) -> KernelId {
    let clone_id = KernelId::new(app.kernels.len() as u32);
    let orig = app.kernel(k).clone();
    let half = orig.compute_cycles / 2;
    let rem = orig.compute_cycles - half;
    let sw_half = orig.sw_cycles / 2;

    let clone = KernelSpec {
        id: clone_id,
        name: format!("{}#2", orig.name),
        compute_cycles: rem + overhead_cycles,
        sw_cycles: orig.sw_cycles - sw_half,
        resources: orig.resources,
        duplicable: false, // no recursive duplication
        streamable: orig.streamable,
    };
    app.kernels[k.index()].compute_cycles = half + overhead_cycles;
    app.kernels[k.index()].sw_cycles = sw_half;
    app.kernels[k.index()].duplicable = false;
    app.kernels.push(clone);

    // Split every edge touching k.
    let mut new_edges = Vec::with_capacity(app.edges.len() + 4);
    for e in &app.edges {
        let touches_src = e.src == Endpoint::Kernel(k);
        let touches_dst = e.dst == Endpoint::Kernel(k);
        if !touches_src && !touches_dst {
            new_edges.push(*e);
            continue;
        }
        let half_b = e.bytes / 2;
        let half_u = e.umas / 2;
        let mk = |src, dst, bytes, umas| CommEdge {
            src,
            dst,
            bytes,
            umas,
        };
        if touches_src {
            new_edges.push(mk(Endpoint::Kernel(k), e.dst, half_b, half_u));
            new_edges.push(mk(
                Endpoint::Kernel(clone_id),
                e.dst,
                e.bytes - half_b,
                e.umas - half_u,
            ));
        } else {
            new_edges.push(mk(e.src, Endpoint::Kernel(k), half_b, half_u));
            new_edges.push(mk(
                e.src,
                Endpoint::Kernel(clone_id),
                e.bytes - half_b,
                e.umas - half_u,
            ));
        }
    }
    app.edges = new_edges;
    debug_assert!(app.validate().is_ok());
    clone_id
}

impl InterconnectPlan {
    /// The Table IV "Solution" label: which mechanisms the plan uses.
    pub fn solution_label(&self) -> String {
        let mut parts = Vec::new();
        if self.noc.is_some() {
            parts.push("NoC");
        }
        if !self.sm_pairs.is_empty() {
            parts.push("SM");
        }
        if !self.parallel.is_empty() || !self.duplicated.is_empty() {
            parts.push("P");
        }
        if parts.is_empty() {
            parts.push("Bus");
        }
        parts.join(", ")
    }

    /// Kernels of the (elaborated) application.
    pub fn n_kernels(&self) -> usize {
        self.app.n_kernels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_fabric::time::Frequency;
    use hic_fabric::HostSpec;

    fn kernel(id: u32, name: &str, cycles: u64) -> KernelSpec {
        KernelSpec::new(id, name, cycles, cycles * 6, Resources::new(1_000, 1_000))
    }

    /// A paper-shaped pipeline: host → a → b → c → host, where b→c is an
    /// exclusive pair.
    fn pipeline_app() -> AppSpec {
        AppSpec::new(
            "pipe",
            HostSpec::default(),
            Frequency::from_mhz(100),
            vec![
                kernel(0, "a", 100_000),
                kernel(1, "b", 100_000),
                kernel(2, "c", 100_000),
            ],
            vec![
                CommEdge::h2k(0u32, 64_000),
                CommEdge::k2k(0u32, 1u32, 32_000),
                CommEdge::k2k(1u32, 2u32, 32_000),
                CommEdge::k2h(2u32, 16_000),
                CommEdge::h2k(2u32, 8_000),
            ],
            50_000,
        )
        .unwrap()
    }

    #[test]
    fn baseline_has_no_custom_interconnect() {
        let app = pipeline_app();
        let plan = design(&app, &DesignConfig::default(), Variant::Baseline).unwrap();
        assert!(plan.noc.is_none());
        assert!(plan.sm_pairs.is_empty());
        assert!(plan.parallel.is_empty());
        assert_eq!(plan.solution_label(), "Bus");
        for e in plan.kernels.values() {
            assert_eq!(e.attach.kernel, KernelAttach::K1);
            assert_eq!(e.attach.mem, MemAttach::M1);
        }
    }

    #[test]
    fn hybrid_finds_the_exclusive_pair() {
        let app = pipeline_app();
        let plan = design(&app, &DesignConfig::default(), Variant::Hybrid).unwrap();
        // b→c qualifies (b sends only to c, c receives kernel data only
        // from b). a→b does not (b's kernel_in comes only from a, but a's
        // kernel_out goes only to b... both qualify structurally — but each
        // kernel joins at most one pair, and edges are scanned by size.
        assert_eq!(plan.sm_pairs.len(), 1);
        let p = plan.sm_pairs[0];
        // Both edges are 32k; tie is broken by scan order. The pair must be
        // one of the two adjacent pairs.
        assert!(
            (p.producer, p.consumer) == (KernelId::new(0), KernelId::new(1))
                || (p.producer, p.consumer) == (KernelId::new(1), KernelId::new(2))
        );
        // c has host traffic in both cases ⇒ crossbar mode when (1,2);
        // b has no host traffic ⇒ direct mode when (0,1).
        match (p.producer.0, p.consumer.0) {
            (0, 1) => assert_eq!(p.mode, SharingMode::Direct),
            (1, 2) => assert_eq!(p.mode, SharingMode::Crossbar),
            _ => unreachable!(),
        }
    }

    #[test]
    fn hybrid_maps_remaining_traffic_to_noc() {
        let app = pipeline_app();
        let plan = design(&app, &DesignConfig::default(), Variant::Hybrid).unwrap();
        let noc = plan.noc.as_ref().expect("one k2k edge remains");
        assert!(noc.routers() >= 2);
        // The plan's label mentions all used mechanisms.
        let label = plan.solution_label();
        assert!(label.contains("NoC") && label.contains("SM"), "{label}");
    }

    #[test]
    fn noc_only_attaches_everything() {
        let app = pipeline_app();
        let plan = design(&app, &DesignConfig::default(), Variant::NocOnly).unwrap();
        assert!(plan.sm_pairs.is_empty());
        let noc = plan.noc.as_ref().unwrap();
        assert_eq!(noc.kernel_nodes.len(), 3);
        assert_eq!(noc.mem_nodes.len(), 3);
        assert_eq!(noc.routers(), 6);
        for e in plan.kernels.values() {
            assert_eq!(e.attach.kernel, KernelAttach::K2);
            assert_eq!(e.attach.mem, MemAttach::M3);
        }
    }

    #[test]
    fn duplication_splits_work_and_traffic() {
        let mut app = pipeline_app();
        app.kernels[0] = app.kernels[0].clone().duplicable();
        let cfg = DesignConfig {
            dup_overhead_cycles: 100,
            ..DesignConfig::default()
        };
        let plan = design(&app, &cfg, Variant::Hybrid).unwrap();
        assert_eq!(plan.duplicated.len(), 1);
        assert_eq!(plan.app.n_kernels(), 4);
        let (orig, clone) = plan.duplicated[0];
        let o = plan.app.kernel(orig);
        let c = plan.app.kernel(clone);
        assert_eq!(o.compute_cycles, 50_000 + 100);
        assert_eq!(c.compute_cycles, 50_000 + 100);
        // Host input split across the instances.
        assert_eq!(plan.app.volumes(orig).host_in, 32_000);
        assert_eq!(plan.app.volumes(clone).host_in, 32_000);
        // SW total preserved.
        assert_eq!(o.sw_cycles + c.sw_cycles, 600_000);
        assert!(plan.app.validate().is_ok());
    }

    #[test]
    fn duplication_respects_resource_budget() {
        let mut app = pipeline_app();
        app.kernels[0] = app.kernels[0].clone().duplicable();
        let cfg = DesignConfig {
            // Just enough for the base system, not for a clone.
            resource_budget: Resources::new(4_100, 4_100),
            ..DesignConfig::default()
        };
        let plan = design(&app, &cfg, Variant::Hybrid).unwrap();
        assert!(plan.duplicated.is_empty());
    }

    #[test]
    fn over_budget_is_an_error() {
        let app = pipeline_app();
        let cfg = DesignConfig {
            resource_budget: Resources::new(100, 100),
            ..DesignConfig::default()
        };
        assert!(matches!(
            design(&app, &cfg, Variant::Hybrid),
            Err(DesignError::OverBudget { .. })
        ));
    }

    #[test]
    fn streamable_kernels_get_parallel_transforms() {
        let mut app = pipeline_app();
        for k in &mut app.kernels {
            *k = k.clone().streamable();
        }
        let plan = design(&app, &DesignConfig::default(), Variant::Hybrid).unwrap();
        assert!(!plan.parallel.is_empty());
        assert!(plan
            .parallel
            .iter()
            .any(|t| matches!(t, ParallelTransform::HostPipeline { .. })));
        assert!(plan
            .parallel
            .iter()
            .any(|t| matches!(t, ParallelTransform::KernelPipeline { .. })));
        assert!(plan.parallel.iter().all(|t| t.saving() > Time::ZERO));
    }

    #[test]
    fn design_is_deterministic() {
        let app = pipeline_app();
        let cfg = DesignConfig::default();
        let a = design(&app, &cfg, Variant::Hybrid).unwrap();
        let b = design(&app, &cfg, Variant::Hybrid).unwrap();
        assert_eq!(a, b);
    }
}
