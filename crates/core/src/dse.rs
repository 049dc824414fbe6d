//! Design-space exploration over the mechanism lattice.
//!
//! Algorithm 1 commits to a fixed mechanism ordering (duplication →
//! shared memory → NoC → parallel). This module asks the question the
//! paper's Table IV answers for two points — "what does each mechanism
//! buy?" — across the whole 2⁴ lattice of mechanism subsets, and extracts
//! the Pareto front over (kernel execution time, LUT usage). A useful
//! sanity property, asserted in the tests: the full Algorithm 1 point is
//! always on the front (nothing dominates it), and the baseline holds the
//! minimum-resource corner.

use crate::design::{design_custom, DesignConfig, DesignError, DesignKnobs, InterconnectPlan};
use hic_fabric::resource::Resources;
use hic_fabric::time::Time;
use hic_fabric::AppSpec;
use hic_obs::trace::Category;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One evaluated mechanism subset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsePoint {
    /// The mechanism selection.
    pub knobs: DesignKnobs,
    /// Human-readable label (e.g. "sm+noc").
    pub label: String,
    /// Analytic kernel execution time.
    pub kernels: Time,
    /// Whole-system resources.
    pub resources: Resources,
    /// Solution label of the synthesized plan.
    pub solution: String,
}

impl DsePoint {
    /// `self` dominates `other`: no worse on any objective — kernel time,
    /// LUTs *and* registers — and strictly better on at least one.
    ///
    /// Registers are a real objective, not a tie-breaker: LUT-only
    /// dominance let a LUT-lean point knock out a register-lean one even
    /// when the latter was the only way to fit a register-bound budget
    /// (the `registers_are_an_objective_not_a_casualty` regression below).
    pub fn dominates(&self, other: &DsePoint) -> bool {
        let t = self.kernels <= other.kernels;
        let l = self.resources.luts <= other.resources.luts;
        let r = self.resources.regs <= other.resources.regs;
        let strict = self.kernels < other.kernels
            || self.resources.luts < other.resources.luts
            || self.resources.regs < other.resources.regs;
        t && l && r && strict
    }
}

fn label(k: DesignKnobs) -> String {
    let mut parts = Vec::new();
    if k.duplication {
        parts.push("dup");
    }
    if k.shared_memory {
        parts.push("sm");
    }
    if k.noc {
        parts.push("noc");
    }
    if k.parallel {
        parts.push("par");
    }
    if parts.is_empty() {
        "baseline".to_string()
    } else {
        parts.join("+")
    }
}

/// The mechanism subset at position `bits` of the 2⁴ lattice (adaptive
/// mapping always on). The bit assignment is part of the DSE's public
/// contract: artifact-store keys and batch job identities derive from it.
pub fn knobs_at(bits: u8) -> DesignKnobs {
    DesignKnobs {
        duplication: bits & 1 != 0,
        shared_memory: bits & 2 != 0,
        noc: bits & 4 != 0,
        parallel: bits & 8 != 0,
        adaptive_mapping: true,
    }
}

/// The full knob lattice in evaluation order.
pub fn lattice() -> Vec<DesignKnobs> {
    (0u8..16).map(knobs_at).collect()
}

/// Evaluate all 16 mechanism subsets (adaptive mapping always on).
///
/// The lattice points are independent designs, so they run in parallel;
/// each point's error is captured per-point and the first failure *in
/// lattice order* is reported, keeping output — points, ordering, and
/// error selection — byte-identical to [`explore_seq`] (asserted in the
/// tests).
pub fn explore(app: &AppSpec, cfg: &DesignConfig) -> Result<Vec<DsePoint>, DesignError> {
    let reg = hic_obs::global();
    let _sweep = hic_obs::stage(Category::Design, "dse.explore", &app.name);
    let bits: Vec<u8> = (0u8..16).collect();
    let evaluated: Vec<Result<DsePoint, DesignError>> = bits
        .par_iter()
        .map(|&bits| {
            let knobs = knobs_at(bits);
            design_custom(app, cfg, knobs).map(|plan| point_of(&plan, knobs))
        })
        .collect();
    let points = evaluated.into_iter().collect::<Result<Vec<_>, _>>()?;
    reg.counter("dse.points_evaluated").add(points.len() as u64);
    Ok(points)
}

/// The sequential reference for [`explore`]: one lattice point at a time,
/// stopping at the first failure.
pub fn explore_seq(app: &AppSpec, cfg: &DesignConfig) -> Result<Vec<DsePoint>, DesignError> {
    let mut points = Vec::with_capacity(16);
    for bits in 0u8..16 {
        let knobs = knobs_at(bits);
        let plan = design_custom(app, cfg, knobs)?;
        points.push(point_of(&plan, knobs));
    }
    Ok(points)
}

/// Evaluate one synthesized plan as a DSE point (public so the batch
/// pipeline can rebuild points from cached plan artifacts).
pub fn point_of(plan: &InterconnectPlan, knobs: DesignKnobs) -> DsePoint {
    let est = plan.estimate();
    DsePoint {
        knobs,
        label: label(knobs),
        kernels: est.kernels,
        resources: plan.resources().total(),
        solution: plan.solution_label(),
    }
}

/// The non-dominated subset of `points`, sorted by execution time.
///
/// Dominance is non-strict on every objective (time, LUTs, registers)
/// with at least one strict improvement, so points tied on *all three*
/// never dominate each other — both survive the filter. Such ties are
/// duplicates in the objective space even when the mechanism label
/// differs, so the front keeps exactly one of each tie group, chosen
/// deterministically as the lexicographically smallest label.
pub fn pareto_front(points: &[DsePoint]) -> Vec<DsePoint> {
    let mut front: Vec<DsePoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    front.sort_by(|a, b| {
        (
            a.kernels,
            a.resources.luts,
            a.resources.regs,
            a.label.as_str(),
        )
            .cmp(&(
                b.kernels,
                b.resources.luts,
                b.resources.regs,
                b.label.as_str(),
            ))
    });
    front.dedup_by(|a, b| {
        a.kernels == b.kernels
            && a.resources.luts == b.resources.luts
            && a.resources.regs == b.resources.regs
    });
    hic_obs::global()
        .gauge("dse.pareto_size")
        .set(front.len() as u64);
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{design, Variant};
    use hic_fabric::time::Frequency;
    use hic_fabric::{CommEdge, HostSpec, KernelSpec};

    fn app() -> AppSpec {
        let mk = |id: u32, name: &str, dup: bool| {
            let mut k = KernelSpec::new(id, name, 150_000, 1_200_000, Resources::new(2_000, 2_000))
                .streamable();
            k.duplicable = dup;
            k
        };
        AppSpec::new(
            "dse",
            HostSpec::default(),
            Frequency::from_mhz(100),
            vec![
                mk(0, "a", true),
                mk(1, "b", false),
                mk(2, "c", false),
                mk(3, "d", false),
            ],
            vec![
                CommEdge::h2k(0u32, 512_000),
                // a → b is an exclusive pair; b fans out to c and d.
                CommEdge::k2k(0u32, 1u32, 512_000),
                CommEdge::k2k(1u32, 2u32, 256_000),
                CommEdge::k2k(1u32, 3u32, 64_000),
                CommEdge::k2h(2u32, 128_000),
                CommEdge::k2h(3u32, 64_000),
            ],
            100_000,
        )
        .unwrap()
    }

    #[test]
    fn explores_all_sixteen_subsets() {
        let points = explore(&app(), &DesignConfig::default()).unwrap();
        assert_eq!(points.len(), 16);
        let labels: std::collections::BTreeSet<&str> =
            points.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains("baseline"));
        assert!(labels.contains("dup+sm+noc+par"));
    }

    #[test]
    fn algorithm1_point_is_on_the_pareto_front() {
        let cfg = DesignConfig::default();
        let points = explore(&app(), &cfg).unwrap();
        let front = pareto_front(&points);
        let full = design(&app(), &cfg, Variant::Hybrid).unwrap();
        let full_est = full.estimate();
        // Nothing strictly dominates the full Algorithm 1 configuration.
        let full_point = points.iter().find(|p| p.label == "dup+sm+noc+par").unwrap();
        assert!(
            !points.iter().any(|q| q.dominates(full_point)),
            "{front:#?}"
        );
        assert_eq!(full_point.kernels, full_est.kernels);
    }

    #[test]
    fn baseline_holds_the_low_resource_corner() {
        let points = explore(&app(), &DesignConfig::default()).unwrap();
        let min_luts = points.iter().map(|p| p.resources.luts).min().unwrap();
        let baseline = points.iter().find(|p| p.label == "baseline").unwrap();
        assert_eq!(baseline.resources.luts, min_luts);
    }

    #[test]
    fn each_mechanism_alone_never_hurts_time() {
        let cfg = DesignConfig::default();
        let points = explore(&app(), &cfg).unwrap();
        let base = points.iter().find(|p| p.label == "baseline").unwrap();
        for single in ["dup", "sm", "noc", "par"] {
            let p = points.iter().find(|p| p.label == single).unwrap();
            assert!(
                p.kernels <= base.kernels,
                "{single}: {} vs baseline {}",
                p.kernels,
                base.kernels
            );
        }
    }

    #[test]
    fn front_is_mutually_non_dominating_and_sorted() {
        let points = explore(&app(), &DesignConfig::default()).unwrap();
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                assert!(!a.dominates(b), "{} dominates {}", a.label, b.label);
                assert!(
                    i == j
                        || a.kernels != b.kernels
                        || a.resources.luts != b.resources.luts
                        || a.resources.regs != b.resources.regs,
                    "{} and {} are objective-space duplicates",
                    a.label,
                    b.label
                );
            }
        }
        for w in front.windows(2) {
            assert!(w[0].kernels <= w[1].kernels);
        }
    }

    #[test]
    fn parallel_explore_is_byte_identical_to_sequential() {
        let cfg = DesignConfig::default();
        let par = explore(&app(), &cfg).unwrap();
        let seq = explore_seq(&app(), &cfg).unwrap();
        assert_eq!(
            serde_json::to_string(&par).unwrap(),
            serde_json::to_string(&seq).unwrap(),
            "parallel lattice sweep must preserve point ordering and values"
        );
        let par_front = pareto_front(&par);
        let seq_front = pareto_front(&seq);
        assert_eq!(
            serde_json::to_string(&par_front).unwrap(),
            serde_json::to_string(&seq_front).unwrap(),
            "Pareto front must not depend on evaluation order"
        );
    }

    #[test]
    fn explore_surfaces_the_first_lattice_error() {
        // A budget that fits nothing fails every point; the parallel path
        // must report the same (first-in-order) error the sequential path
        // stops at.
        let cfg = DesignConfig {
            resource_budget: Resources::new(10, 10),
            ..DesignConfig::default()
        };
        let par = explore(&app(), &cfg).unwrap_err();
        let seq = explore_seq(&app(), &cfg).unwrap_err();
        assert_eq!(par, seq);
    }

    fn point(label: &str, kernels_ns: u64, luts: u64, regs: u64) -> DsePoint {
        DsePoint {
            knobs: DesignKnobs::ALL,
            label: label.to_string(),
            kernels: Time::from_ns(kernels_ns),
            resources: Resources::new(luts, regs),
            solution: String::new(),
        }
    }

    #[test]
    fn equal_points_do_not_dominate_each_other() {
        let a = point("a", 100, 500, 500);
        let b = point("b", 100, 500, 500);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
    }

    #[test]
    fn registers_dominate_when_all_else_is_equal() {
        // Same time and LUTs, fewer registers: a real improvement, so it
        // dominates now that registers are an objective.
        let lean = point("lean", 100, 500, 100);
        let fat = point("fat", 100, 500, 900);
        assert!(lean.dominates(&fat));
        assert!(!fat.dominates(&lean));
    }

    #[test]
    fn registers_are_an_objective_not_a_casualty() {
        // Regression for the LUT-only dominance rule: `lut_lean` beat
        // `reg_lean` on LUTs alone (time tied) and silently collapsed the
        // register-dominated corner of the front. Neither dominates the
        // other now, so both survive.
        let lut_lean = point("lut_lean", 100, 500, 900);
        let reg_lean = point("reg_lean", 100, 600, 100);
        assert!(!lut_lean.dominates(&reg_lean));
        assert!(!reg_lean.dominates(&lut_lean));
        let front = pareto_front(&[lut_lean, reg_lean]);
        assert_eq!(front.len(), 2, "register-lean point must stay: {front:#?}");
    }

    #[test]
    fn objective_ties_collapse_to_the_smallest_label() {
        // Tied on all three objectives: duplicates in objective space, so
        // the front keeps one, chosen by label.
        let pts = vec![
            point("zeta", 100, 500, 100),
            point("alpha", 100, 500, 100),
            point("mid", 50, 800, 100),
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].label, "mid");
        assert_eq!(front[1].label, "alpha", "tie resolves to smallest label");
    }

    #[test]
    fn tie_dedup_is_order_independent() {
        let a = point("a", 100, 500, 100);
        let b = point("b", 100, 500, 100);
        let f1 = pareto_front(&[a.clone(), b.clone()]);
        let f2 = pareto_front(&[b, a]);
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].label, f2[0].label);
    }

    #[test]
    fn sm_only_subset_keeps_noc_off() {
        let cfg = DesignConfig::default();
        let knobs = DesignKnobs {
            duplication: false,
            shared_memory: true,
            noc: false,
            parallel: false,
            adaptive_mapping: true,
        };
        let plan = design_custom(&app(), &cfg, knobs).unwrap();
        assert!(plan.noc.is_none());
        assert!(!plan.sm_pairs.is_empty());
        // Uncovered kernel edges fell back to the bus.
        assert!(!plan.bus_fallback.is_empty());
        // And the estimate accounts them: slower than full hybrid, faster
        // than or equal to baseline.
        let full = design(&app(), &cfg, Variant::Hybrid).unwrap().estimate();
        let base = design(&app(), &cfg, Variant::Baseline).unwrap().estimate();
        let est = plan.estimate();
        assert!(est.kernels >= full.kernels);
        assert!(est.kernels <= base.kernels);
    }
}
