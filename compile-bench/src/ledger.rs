//! The per-layer ledger: a single-threaded replay of one pass that times
//! every call into a layer's public function from the benchmark's own
//! code, in the order `hic_pipeline::batch::sequential_report` runs them.
//!
//! Two layers are nested inside others and are not added again when the
//! layers are summed: `place` runs inside `design` (it is re-invoked on
//! rebuilt inputs to time it alone) and `des` runs inside `cosim`.

use hic_core::{
    design_custom, knobs_at, pareto_front, point_of, DesignConfig, DesignKnobs, InterconnectPlan,
    PlanArtifact, StableHash, Variant,
};
use hic_fabric::{KernelId, MemoryId};
use hic_noc::{place, EngineKind, HybridConfig, NocNode, Placement, Traffic};
use hic_pipeline::{stages, AppReport, AppSource, ArtifactStore, ProfileArtifact};
use hic_sim::CosimResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;

/// Wall time (ns) and work counts of one replayed pass, per layer.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub profile_ns: u64,
    pub profile_calls: u64,
    pub design_ns: u64,
    pub design_calls: u64,
    pub place_ns: u64,
    pub place_nodes: u64,
    pub estimate_ns: u64,
    pub des_ns: u64,
    pub cosim_ns: u64,
    pub cosim_noc_cycles: u64,
    pub cosim_packets: u64,
    pub cosim_parallel_runs: u64,
    /// Cosim at the default heatmap window minus cosim at window 0; noise
    /// can make it negative when the heatmap costs next to nothing.
    pub heatmap_ns: i64,
    pub key_ns: u64,
    pub write_ns: u64,
    pub objects_written: u64,
    pub bytes_written: u64,
    pub read_ns: u64,
    pub hits: u64,
}

impl Ledger {
    /// Sum of the layers a pass runs one after another (everything but
    /// the nested `place` and `des`).
    pub fn blocking_ns(&self) -> i64 {
        let serial = self.profile_ns
            + self.design_ns
            + self.estimate_ns
            + self.cosim_ns
            + self.key_ns
            + self.write_ns
            + self.read_ns;
        serial as i64 + self.heatmap_ns
    }
}

/// Run `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// Load and deserialize the object for `key`, timed as a store read.
pub fn read<T: serde::Deserialize>(
    l: &mut Ledger,
    store: &ArtifactStore,
    key: StableHash,
    what: &str,
) -> Result<T, String> {
    let t0 = Instant::now();
    let payload = store
        .load(key)
        .ok_or_else(|| format!("{what}: not in the store"))?;
    let value = serde_json::from_str(&payload).map_err(|e| format!("{what}: {e}"))?;
    l.read_ns += t0.elapsed().as_nanos() as u64;
    l.hits += 1;
    Ok(value)
}

/// Serialize `value` and publish it under `key`, timed as a store write.
fn publish<T: serde::Serialize>(
    l: &mut Ledger,
    store: &ArtifactStore,
    key: StableHash,
    stage: &str,
    value: &T,
) -> Result<(), String> {
    let bytes = timed(&mut l.write_ns, || -> Result<usize, String> {
        let payload = serde_json::to_string(value).map_err(|e| format!("{stage}: {e}"))?;
        store
            .publish(key, stage, &payload)
            .map_err(|e| format!("{stage}: {e}"))?;
        Ok(payload.len())
    })?;
    l.objects_written += 1;
    l.bytes_written += bytes as u64;
    Ok(())
}

/// Publish a plan the way the design stage does: as a [`PlanArtifact`],
/// continuing with the plan rebuilt from that artifact.
fn publish_plan(
    l: &mut Ledger,
    store: &ArtifactStore,
    key: StableHash,
    plan: &InterconnectPlan,
) -> Result<InterconnectPlan, String> {
    let artifact = timed(&mut l.write_ns, || PlanArtifact::from(plan));
    publish(l, store, key, "design", &artifact)?;
    Ok(timed(&mut l.write_ns, || artifact.into_plan()))
}

/// The inputs Algorithm 1 hands to [`place`] for `plan`, rebuilt from the
/// plan: the NoC's kernel and memory nodes, and the kernel→memory traffic
/// of every kernel-to-kernel edge no shared-memory pair absorbed. `None`
/// for a plan without a NoC.
pub fn placement_inputs(plan: &InterconnectPlan) -> Option<(Vec<NocNode>, Traffic)> {
    let noc = plan.noc.as_ref()?;
    let nodes: Vec<NocNode> = noc
        .kernel_nodes
        .iter()
        .map(|&k| NocNode::Kernel(k))
        .chain(
            noc.mem_nodes
                .iter()
                .map(|&k| NocNode::Memory(MemoryId(k.0))),
        )
        .collect();
    let shared: BTreeSet<(KernelId, KernelId)> = plan
        .sm_pairs
        .iter()
        .map(|p| (p.producer, p.consumer))
        .collect();
    let traffic: Traffic = plan
        .app
        .k2k_edges()
        .filter_map(|e| {
            let (i, j) = (e.src.kernel()?, e.dst.kernel()?);
            if shared.contains(&(i, j)) {
                return None;
            }
            Some((NocNode::Kernel(i), NocNode::Memory(MemoryId(j.0)), e.bytes))
        })
        .filter(|(a, b, _)| nodes.contains(a) && nodes.contains(b))
        .collect();
    Some((nodes, traffic))
}

/// Re-run placement on `plan`'s rebuilt inputs with the design seed.
pub fn rerun_placement(plan: &InterconnectPlan) -> Option<Placement> {
    let (nodes, traffic) = placement_inputs(plan)?;
    let mut rng = StdRng::seed_from_u64(plan.config.seed);
    Some(place(&nodes, &traffic, &mut rng))
}

/// Time placement alone for `plan` and check it reproduces the plan's.
fn check_placement(l: &mut Ledger, plan: &InterconnectPlan) -> Result<(), String> {
    let Some(noc) = &plan.noc else {
        return Ok(());
    };
    let placed = timed(&mut l.place_ns, || rerun_placement(plan)).expect("plan has a NoC");
    l.place_nodes += placed.slots.len() as u64;
    if placed != noc.placement {
        return Err(format!(
            "{}: re-invoked place did not reproduce the plan's placement",
            plan.app.name
        ));
    }
    Ok(())
}

/// Co-simulate `plan` without spatial accounting (`cosim`), then once
/// more without it and once at the process heatmap window; `heatmap` is
/// the difference of those two, both run with the plan's co-simulation
/// already warm, as the first run was not. Also times the DES alone.
/// Returns the windowed result, which is what the cosim stage stores.
fn cosim_layers(l: &mut Ledger, plan: &InterconnectPlan) -> Result<CosimResult, String> {
    let window = hic_sim::heatmap_window();
    let run = |w: u64, ns: &mut u64| {
        hic_sim::set_heatmap_window(w);
        let sim = timed(ns, || hic_sim::cosimulate_with(plan, EngineKind::Auto));
        hic_sim::set_heatmap_window(window);
        sim
    };
    let (mut cold_ns, mut bare_ns, mut full_ns) = (0, 0, 0);
    let bare = run(0, &mut cold_ns);
    run(0, &mut bare_ns);
    let full = run(window, &mut full_ns);
    std::hint::black_box(timed(&mut l.des_ns, || hic_sim::simulate(plan)));
    if (bare.kernel_time, bare.noc_cycles) != (full.kernel_time, full.noc_cycles) {
        return Err(format!(
            "{}: heatmap window {window} changed the co-simulated result",
            plan.app.name
        ));
    }
    l.cosim_ns += cold_ns;
    l.heatmap_ns += full_ns as i64 - bare_ns as i64;
    l.cosim_noc_cycles += bare.noc_cycles;
    l.cosim_packets += bare.packets as u64;
    let threshold = HybridConfig::default().parallel_threshold;
    if plan
        .noc
        .as_ref()
        .is_some_and(|n| n.config.mesh.len() >= threshold)
    {
        l.cosim_parallel_runs += 1;
    }
    Ok(full)
}

/// Co-simulate the hybrid plan and, given a store, publish the result as
/// the cosim stage does.
fn cosim_stage(
    l: &mut Ledger,
    store: Option<&ArtifactStore>,
    plan: &InterconnectPlan,
) -> Result<CosimResult, String> {
    let Some(store) = store else {
        return cosim_layers(l, plan);
    };
    let key = timed(&mut l.key_ns, || {
        stages::cosim_key(&PlanArtifact::from(plan))
    });
    let sim = cosim_layers(l, plan)?;
    publish(l, store, key, "cosim", &sim)?;
    Ok(sim)
}

fn load_source(l: &mut Ledger, app: &str) -> Result<hic_pipeline::LoadedSource, String> {
    let loaded = timed(&mut l.profile_ns, || {
        AppSource::parse(app).and_then(|s| s.load())
    });
    loaded.map_err(|e| format!("{app}: {e}"))
}

/// Replay one `run_batch` app with `read_cache = false`: profile, the 16
/// lattice designs, cosim of the hybrid (point 15), and the report. Given
/// a store, every stage computes its key and publishes, as the batch does
/// with one.
pub fn replay_batch_job(
    l: &mut Ledger,
    store: Option<&ArtifactStore>,
    app: &str,
) -> Result<AppReport, String> {
    let cfg = DesignConfig::default();
    let loaded = load_source(l, app)?;
    let profile = timed(&mut l.profile_ns, || loaded.compute()).map_err(|e| e.to_string())?;
    l.profile_calls += 1;
    if let Some(store) = store {
        let key = timed(&mut l.key_ns, || stages::profile_key(app)).map_err(|e| e.to_string())?;
        publish(l, store, key, "profile", &profile)?;
    }
    let spec = &profile.spec;

    let mut points = Vec::with_capacity(16);
    let mut hybrid = None;
    for bits in 0u8..16 {
        let knobs = knobs_at(bits);
        let label = if knobs == DesignKnobs::NONE {
            Variant::Baseline.name()
        } else {
            Variant::Hybrid.name()
        };
        let plan = timed(&mut l.design_ns, || design_custom(spec, &cfg, knobs))
            .map_err(|e| format!("{app}: {e}"))?;
        l.design_calls += 1;
        let plan = match store {
            Some(store) => {
                let key = timed(&mut l.key_ns, || {
                    stages::design_key(spec, &cfg, knobs, label)
                });
                publish_plan(l, store, key, &plan)?
            }
            None => plan,
        };
        check_placement(l, &plan)?;
        points.push(timed(&mut l.estimate_ns, || point_of(&plan, knobs)));
        if bits == 15 {
            hybrid = Some(plan);
        }
    }
    let hybrid = hybrid.expect("lattice point 15 designed");
    let sim = cosim_stage(l, store, &hybrid)?;
    Ok(timed(&mut l.estimate_ns, || {
        let front = pareto_front(&points);
        let est = hybrid.estimate();
        AppReport {
            app: app.to_string(),
            kernels: hybrid.kernels.len(),
            solution: hybrid.solution_label(),
            analytic_kernel_cycles: est.kernels.0,
            cosim_kernel_cycles: sim.kernel_time.0,
            cosim_app_cycles: sim.app_time.0,
            noc_packets: sim.packets as u64,
            speedup_vs_sw: est.app_speedup_vs_sw(),
            speedup_vs_baseline: est.app_speedup_vs_baseline(),
            dse_points: points,
            pareto_front: front,
        }
    }))
}

/// Replay one `noc-verify` job: the profile and the hybrid design at
/// `cfg` as store hits, then cosim and the estimate with no store.
/// Returns the plan, its co-simulation and its LUTs.
pub fn replay_noc_job(
    l: &mut Ledger,
    store: &ArtifactStore,
    app: &str,
    cfg: &DesignConfig,
) -> Result<(InterconnectPlan, CosimResult, u64), String> {
    load_source(l, app)?;
    let key = timed(&mut l.key_ns, || stages::profile_key(app)).map_err(|e| e.to_string())?;
    let profile: ProfileArtifact = read(l, store, key, app)?;
    let spec = &profile.spec;
    let key = timed(&mut l.key_ns, || {
        stages::design_key(spec, cfg, Variant::Hybrid.knobs(), Variant::Hybrid.name())
    });
    let artifact: PlanArtifact = read(l, store, key, "hybrid plan")?;
    let plan = timed(&mut l.read_ns, || artifact.into_plan());
    let sim = cosim_stage(l, None, &plan)?;
    let luts = timed(&mut l.estimate_ns, || {
        std::hint::black_box(plan.estimate());
        plan.resources().total().luts
    });
    Ok((plan, sim, luts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(app: &str) -> Vec<InterconnectPlan> {
        let spec = stages::profile(None, false, app).unwrap().spec;
        let cfg = DesignConfig::default();
        (0u8..16)
            .map(|bits| design_custom(&spec, &cfg, knobs_at(bits)).unwrap())
            .collect()
    }

    #[test]
    fn rebuilt_inputs_reproduce_every_lattice_placement() {
        // k=12 takes the greedy path (more than 8 NoC nodes), where the
        // seeded RNG matters; k=5 the exhaustive one.
        for app in ["gen:k=5,seed=3", "gen:k=12,seed=7", "jpeg"] {
            let mut with_noc = 0;
            for plan in plans(app) {
                let Some(noc) = &plan.noc else {
                    assert!(rerun_placement(&plan).is_none());
                    continue;
                };
                with_noc += 1;
                assert_eq!(
                    rerun_placement(&plan).as_ref(),
                    Some(&noc.placement),
                    "{app}"
                );
            }
            assert!(with_noc > 0, "{app} has lattice points with a NoC");
        }
    }

    #[test]
    fn rebuilt_traffic_skips_shared_pairs_and_off_noc_nodes() {
        for plan in plans("gen:k=8,seed=5") {
            let Some((nodes, traffic)) = placement_inputs(&plan) else {
                continue;
            };
            for p in &plan.sm_pairs {
                let pair = (
                    NocNode::Kernel(p.producer),
                    NocNode::Memory(MemoryId(p.consumer.0)),
                );
                assert!(!traffic.iter().any(|&(a, b, _)| (a, b) == pair));
            }
            assert!(traffic
                .iter()
                .all(|(a, b, _)| nodes.contains(a) && nodes.contains(b)));
        }
    }

    #[test]
    fn the_placement_check_catches_a_changed_placement() {
        let mut plan = plans("gen:k=12,seed=7").pop().expect("point 15");
        let mut l = Ledger::default();
        assert!(check_placement(&mut l, &plan).is_ok());
        assert!(l.place_nodes > 8 && l.place_ns > 0);
        // Swap two placed nodes: the re-invoked placement no longer
        // matches the plan's.
        let noc = plan.noc.as_mut().expect("point 15 has a NoC");
        let mut slots = noc.placement.slots.values_mut();
        let (a, b) = (slots.next().unwrap(), slots.next().unwrap());
        std::mem::swap(a, b);
        assert!(check_placement(&mut l, &plan).is_err());
    }

    #[test]
    fn blocking_sum_leaves_out_nested_layers() {
        let l = Ledger {
            profile_ns: 1,
            design_ns: 10,
            place_ns: 5,
            estimate_ns: 100,
            cosim_ns: 1000,
            des_ns: 50,
            heatmap_ns: -3,
            key_ns: 10_000,
            write_ns: 100_000,
            read_ns: 1_000_000,
            ..Ledger::default()
        };
        assert_eq!(l.blocking_ns(), 1_111_111 - 3);
    }
}
