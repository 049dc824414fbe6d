//! Cached pipeline stages.
//!
//! Each stage here pairs a key derivation with a compute function and
//! funnels both through [`ArtifactStore::get_or_compute`]. The key
//! rules (part of the `hic-store/v1` contract, see `DESIGN.md` §10):
//!
//! * **profile** — hash of the app source's identity (see
//!   [`crate::source`]): built-ins key on name + fixed workload
//!   parameters, `gen:` sources on the canonical spec string, `trace:`
//!   sources on the trace contents, `file:` sources on the parsed spec.
//!   Profiling every source is deterministic, so the source identity is
//!   the entire input.
//! * **design** — hash of the profiled [`AppSpec`] artifact, the
//!   [`DesignConfig`], the [`DesignKnobs`], and the variant label. A
//!   changed budget, bus width, seed, or knob set changes the key.
//! * **cosim** — hash of the full [`PlanArtifact`] JSON: co-simulation
//!   depends on nothing but the plan.
//! * **dse** — hash of the spec and config artifacts; the 2⁴ lattice is
//!   implied by the stage semantics (and by the crate-version salt if it
//!   ever grows).
//!
//! All stage functions accept `store: Option<&ArtifactStore>` — `None`
//! computes directly, which keeps the CLI paths usable without a cache
//! directory (hermetic tests, read-only filesystems).

use crate::source::AppSource;
use crate::store::{stage_key, ArtifactStore};
use crate::PipelineError;
use hic_core::{
    design, design_custom, stable_hash_json, DesignConfig, DesignKnobs, DsePoint, InterconnectPlan,
    PlanArtifact, StableHash, Variant,
};
use hic_fabric::AppSpec;
use hic_obs::trace::Category;
use hic_profiling::CommGraph;
use hic_sim::CosimResult;
use serde::{Deserialize, Serialize};

/// The four applications evaluated in the paper, in its table order.
pub const PAPER_APPS: [&str; 4] = ["canny", "jpeg", "klt", "fluid"];

/// The profile stage's output: the measured spec plus the communication
/// graph it was derived from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileArtifact {
    /// The profiled application, ready for design.
    pub spec: AppSpec,
    /// The function-level communication graph (the paper's Fig. 5).
    pub graph: CommGraph,
}

/// Run a built-in profiled application (uncached). Other app sources
/// (`gen:`/`trace:`/`file:`) resolve through [`crate::source`]; this is
/// the leaf the `builtin` arm bottoms out in.
pub fn run_profiled_builtin(app: &str) -> Result<ProfileArtifact, PipelineError> {
    let (spec, graph) = match app {
        "canny" => {
            let r = hic_apps::canny::run_profiled(64, 64, 42);
            (r.app, r.graph)
        }
        "jpeg" => {
            let r = hic_apps::jpeg::run_profiled(8, 8, 42);
            (r.app, r.graph)
        }
        "klt" => {
            let r = hic_apps::klt::run_profiled(48, 48, 12, 42);
            (r.app, r.graph)
        }
        "fluid" => {
            let r = hic_apps::fluid::run_profiled(24, 42);
            (r.app, r.graph)
        }
        other => return Err(PipelineError::UnknownApp(other.to_string())),
    };
    Ok(ProfileArtifact { spec, graph })
}

/// Store key for the profile stage of the app string `app`. Loads the
/// source (reads trace/spec files) to derive the content digest.
pub fn profile_key(app: &str) -> Result<StableHash, PipelineError> {
    let loaded = AppSource::parse(app)?.load()?;
    Ok(stage_key("profile", &[loaded.digest()]))
}

/// Store key for a design of `spec` under `cfg`/`knobs` labeled `label`.
pub fn design_key(
    spec: &AppSpec,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
    label: &str,
) -> StableHash {
    design_key_for(stable_hash_json(spec), cfg, knobs, label)
}

/// [`design_key`] for a spec whose `stable_hash_json` the caller already
/// holds: a batch hashes each spec once for all its lattice points.
pub fn design_key_for(
    spec_hash: StableHash,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
    label: &str,
) -> StableHash {
    stage_key(
        "design",
        &[
            spec_hash,
            stable_hash_json(cfg),
            stable_hash_json(&knobs),
            stable_hash_json(&label),
        ],
    )
}

/// Store key for the co-simulation of `plan` at the current
/// process-wide heatmap window (see [`hic_sim::set_heatmap_window`]).
pub fn cosim_key(plan: &PlanArtifact) -> StableHash {
    cosim_key_for(plan, hic_sim::heatmap_window())
}

/// Store key for the co-simulation of `plan` at an explicit spatial
/// window. The cosim artifact embeds the `hic-heatmap/v1` report, whose
/// content depends on the window; salting the key with the schema tag
/// and the window keeps pre-heatmap cache entries — and runs at other
/// windows — from being served for this configuration.
pub fn cosim_key_for(plan: &PlanArtifact, window: u64) -> StableHash {
    stage_key(
        "cosim",
        &[
            stable_hash_json(plan),
            stable_hash_json(&hic_sim::HEATMAP_SCHEMA),
            stable_hash_json(&window),
        ],
    )
}

/// Store key for the DSE sweep of `spec` under `cfg`.
pub fn dse_key(spec: &AppSpec, cfg: &DesignConfig) -> StableHash {
    stage_key("dse", &[stable_hash_json(spec), stable_hash_json(cfg)])
}

/// Profile the app string `app` (any [`AppSource`] scheme), through the
/// store when one is given.
pub fn profile(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    app: &str,
) -> Result<ProfileArtifact, PipelineError> {
    let _stage = hic_obs::stage(Category::Batch, "profile", app);
    let loaded = AppSource::parse(app)?.load()?;
    match store {
        None => loaded.compute(),
        Some(s) => {
            let key = stage_key("profile", &[loaded.digest()]);
            s.get_or_compute("profile", key, read_cache, move || loaded.compute())
        }
    }
}

/// Design `spec` for a named variant, through the store when one is given.
pub fn design_variant(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    spec: &AppSpec,
    cfg: &DesignConfig,
    variant: Variant,
) -> Result<InterconnectPlan, PipelineError> {
    let knobs = variant.knobs();
    cached_design(
        store,
        read_cache,
        spec,
        None,
        cfg,
        knobs,
        variant.name(),
        || design(spec, cfg, variant).map_err(PipelineError::from),
    )
}

/// Design `spec` for an explicit knob set (a DSE lattice point), through
/// the store when one is given. The label mirrors [`design_custom`]'s
/// rule — `NONE` is a baseline, anything else a hybrid — so the all-on
/// lattice point shares its artifact with [`Variant::Hybrid`].
pub fn design_point(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    spec: &AppSpec,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
) -> Result<InterconnectPlan, PipelineError> {
    design_point_hashed(store, read_cache, spec, None, cfg, knobs)
}

/// [`design_point`] given `spec`'s `stable_hash_json` when the caller
/// already has it (`None` hashes the spec if the store needs a key).
pub fn design_point_hashed(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    spec: &AppSpec,
    spec_hash: Option<StableHash>,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
) -> Result<InterconnectPlan, PipelineError> {
    let label = if knobs == DesignKnobs::NONE {
        Variant::Baseline.name()
    } else {
        Variant::Hybrid.name()
    };
    cached_design(
        store,
        read_cache,
        spec,
        spec_hash,
        cfg,
        knobs,
        label,
        || design_custom(spec, cfg, knobs).map_err(PipelineError::from),
    )
}

#[allow(clippy::too_many_arguments)]
fn cached_design(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    spec: &AppSpec,
    spec_hash: Option<StableHash>,
    cfg: &DesignConfig,
    knobs: DesignKnobs,
    label: &str,
    compute: impl FnOnce() -> Result<InterconnectPlan, PipelineError>,
) -> Result<InterconnectPlan, PipelineError> {
    let bits = (knobs.duplication as u8)
        | (knobs.shared_memory as u8) << 1
        | (knobs.noc as u8) << 2
        | (knobs.parallel as u8) << 3;
    let _stage = hic_obs::stage(
        Category::Batch,
        "design",
        format_args!("{}#{bits}", spec.name),
    );
    match store {
        None => compute(),
        Some(s) => {
            let spec_hash = spec_hash.unwrap_or_else(|| stable_hash_json(spec));
            let key = design_key_for(spec_hash, cfg, knobs, label);
            // Plans cache as [`PlanArtifact`] — the store-safe flattening
            // whose JSON round-trips exactly (NoC placement included).
            let artifact: PlanArtifact =
                s.get_or_compute("design", key, read_cache, move || {
                    compute().map(|p| PlanArtifact::from(&p))
                })?;
            Ok(artifact.into_plan())
        }
    }
}

/// Co-simulate `plan`, through the store when one is given.
pub fn cosim(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    plan: &InterconnectPlan,
) -> Result<CosimResult, PipelineError> {
    let _stage = hic_obs::stage(Category::Batch, "cosim", &plan.app.name);
    match store {
        None => Ok(hic_sim::cosimulate(plan)),
        Some(s) => {
            let artifact = PlanArtifact::from(plan);
            let key = cosim_key(&artifact);
            s.get_or_compute("cosim", key, read_cache, move || {
                Ok(hic_sim::cosimulate(plan))
            })
        }
    }
}

/// Explore the full knob lattice for `spec`, through the store when one
/// is given.
pub fn dse_points(
    store: Option<&ArtifactStore>,
    read_cache: bool,
    spec: &AppSpec,
    cfg: &DesignConfig,
) -> Result<Vec<DsePoint>, PipelineError> {
    let _stage = hic_obs::stage(Category::Batch, "dse", &spec.name);
    match store {
        None => hic_core::explore(spec, cfg).map_err(PipelineError::from),
        Some(s) => {
            let key = dse_key(spec, cfg);
            s.get_or_compute("dse", key, read_cache, move || {
                hic_core::explore(spec, cfg).map_err(PipelineError::from)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_and_cfg() -> (AppSpec, DesignConfig) {
        let p = run_profiled_builtin("jpeg").unwrap();
        (p.spec, DesignConfig::default())
    }

    #[test]
    fn profile_keys_separate_apps_and_sources() {
        assert_ne!(profile_key("jpeg").unwrap(), profile_key("canny").unwrap());
        assert_ne!(
            profile_key("gen:k=4,seed=1").unwrap(),
            profile_key("gen:k=4,seed=2").unwrap()
        );
        // Spelling does not matter, parameters do.
        assert_eq!(
            profile_key("gen:seed=2,k=4").unwrap(),
            profile_key("gen:k=4,seed=2").unwrap()
        );
    }

    #[test]
    fn profile_resolves_generated_sources() {
        let p = profile(None, false, "gen:k=3,seed=7").unwrap();
        assert_eq!(p.spec.n_kernels(), 3);
        assert!(p.spec.validate().is_ok());
        assert!(matches!(
            profile(None, false, "nope"),
            Err(PipelineError::UnknownApp(_))
        ));
        assert!(matches!(
            profile(None, false, "gen:k=99"),
            Err(PipelineError::BadSource(_))
        ));
    }

    #[test]
    fn design_key_tracks_the_config() {
        let (spec, cfg) = spec_and_cfg();
        let mut fatter = cfg;
        fatter.resource_budget.luts += 1;
        let k0 = design_key(&spec, &cfg, DesignKnobs::ALL, "hybrid");
        assert_ne!(k0, design_key(&spec, &fatter, DesignKnobs::ALL, "hybrid"));
        assert_ne!(k0, design_key(&spec, &cfg, DesignKnobs::NONE, "hybrid"));
        assert_eq!(k0, design_key(&spec, &cfg, DesignKnobs::ALL, "hybrid"));
    }

    #[test]
    fn design_key_for_a_prehashed_spec_is_the_same_key() {
        let spec = crate::stages::profile(None, false, "gen:k=6,seed=3")
            .unwrap()
            .spec;
        let cfg = DesignConfig::default();
        let hash = stable_hash_json(&spec);
        for bits in 0u8..16 {
            let knobs = hic_core::knobs_at(bits);
            for label in ["hybrid", "baseline"] {
                assert_eq!(
                    design_key(&spec, &cfg, knobs, label),
                    design_key_for(hash, &cfg, knobs, label)
                );
            }
        }
    }

    #[test]
    fn cosim_key_tracks_the_heatmap_window() {
        let (spec, cfg) = spec_and_cfg();
        let plan = design_variant(None, true, &spec, &cfg, Variant::Hybrid).unwrap();
        let artifact = PlanArtifact::from(&plan);
        // Different windows produce different artifacts, so they must
        // key separately; and neither collides with the pre-heatmap key
        // shape (plan hash alone).
        let k1024 = cosim_key_for(&artifact, 1024);
        assert_ne!(k1024, cosim_key_for(&artifact, 256));
        assert_ne!(k1024, cosim_key_for(&artifact, 0));
        assert_ne!(k1024, stage_key("cosim", &[stable_hash_json(&artifact)]));
        assert_eq!(
            cosim_key(&artifact),
            cosim_key_for(&artifact, hic_sim::heatmap_window())
        );
    }

    #[test]
    fn hybrid_variant_and_all_knob_point_share_a_key() {
        // `Variant::Hybrid.knobs() == ALL` and `design_point` labels the
        // all-on point "hybrid", so the batch DAG can depend on lattice
        // point 15 instead of designing the hybrid twice.
        let (spec, cfg) = spec_and_cfg();
        assert_eq!(
            design_key(&spec, &cfg, Variant::Hybrid.knobs(), Variant::Hybrid.name()),
            design_key(&spec, &cfg, DesignKnobs::ALL, "hybrid"),
        );
    }

    #[test]
    fn uncached_stages_match_the_direct_calls() {
        let (spec, cfg) = spec_and_cfg();
        let plan = design_variant(None, true, &spec, &cfg, Variant::Hybrid).unwrap();
        let direct = design(&spec, &cfg, Variant::Hybrid).unwrap();
        assert_eq!(
            serde_json::to_string(&PlanArtifact::from(&plan)).unwrap(),
            serde_json::to_string(&PlanArtifact::from(&direct)).unwrap()
        );
        let sim = cosim(None, true, &plan).unwrap();
        assert_eq!(sim, hic_sim::cosimulate(&direct));
    }
}
